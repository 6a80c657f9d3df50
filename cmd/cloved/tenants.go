package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"clove/internal/datapath"
)

// Duration is a JSON-friendly time.Duration: it marshals as a string
// ("500µs") and unmarshals from either a Go duration string or a plain
// number of nanoseconds.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// TenantSpec configures one tenant overlay: its own shared-nothing
// datapath.Endpoint with private path sockets, stats, weights, and drain.
type TenantSpec struct {
	// Name identifies the tenant on the stats line and the admin API.
	Name string `json:"name"`
	// Listen is the local IP to bind path sockets on (default 127.0.0.1).
	Listen string `json:"listen,omitempty"`
	// Remote is the peer address; empty starts the tenant receive-only
	// until a /config retarget installs one.
	Remote string `json:"remote,omitempty"`
	// Paths is the number of path sockets (default 4).
	Paths int `json:"paths,omitempty"`
	// FlowletGap and RelayInterval override the datapath defaults.
	FlowletGap    Duration `json:"flowlet_gap,omitempty"`
	RelayInterval Duration `json:"relay_interval,omitempty"`
}

type tenantsFile struct {
	Tenants []TenantSpec `json:"tenants"`
}

// parseTenants decodes and validates a tenants spec. Unknown fields and
// trailing data are rejected so a typo cannot silently configure nothing.
func parseTenants(data []byte) ([]TenantSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var tf tenantsFile
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	if dec.More() {
		return nil, errors.New("tenants: trailing data after spec")
	}
	if err := validateTenants(tf.Tenants); err != nil {
		return nil, err
	}
	return tf.Tenants, nil
}

// validateTenants checks every spec and fills its zero fields from the
// datapath defaults in place. Specs from a -tenants file and the one built
// from flags both pass through it, so neither can reach a tenant with a
// negative duration.
func validateTenants(specs []TenantSpec) error {
	if len(specs) == 0 {
		return errors.New("tenants: no tenants defined")
	}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		t := &specs[i]
		if t.Name == "" {
			return fmt.Errorf("tenants: tenant %d: name is required", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("tenants: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Paths < 0 {
			return fmt.Errorf("tenants: tenant %q: paths must be positive, got %d", t.Name, t.Paths)
		}
		if t.FlowletGap < 0 {
			return fmt.Errorf("tenants: tenant %q: flowlet_gap must not be negative", t.Name)
		}
		if t.RelayInterval < 0 {
			return fmt.Errorf("tenants: tenant %q: relay_interval must not be negative", t.Name)
		}
		applyTenantDefaults(t)
	}
	return nil
}

// applyTenantDefaults fills zero fields from the datapath defaults.
func applyTenantDefaults(t *TenantSpec) {
	def := datapath.DefaultConfig()
	if t.Listen == "" {
		t.Listen = "127.0.0.1"
	}
	if t.Paths == 0 {
		t.Paths = def.Paths
	}
	if t.FlowletGap == 0 {
		t.FlowletGap = Duration(def.FlowletGap)
	}
	if t.RelayInterval == 0 {
		t.RelayInterval = Duration(def.RelayInterval)
	}
}

// loadTenants reads and parses a tenants spec file.
func loadTenants(path string) ([]TenantSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	return parseTenants(data)
}
