package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseTenantsDefaults(t *testing.T) {
	specs, err := parseTenants([]byte(`{"tenants":[{"name":"solo"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("len = %d", len(specs))
	}
	s := specs[0]
	if s.Listen != "127.0.0.1" {
		t.Errorf("Listen = %q", s.Listen)
	}
	if s.Paths != 4 {
		t.Errorf("Paths = %d, want datapath default 4", s.Paths)
	}
	if s.FlowletGap <= 0 || s.RelayInterval <= 0 {
		t.Errorf("gaps not defaulted: %v / %v", s.FlowletGap, s.RelayInterval)
	}
	if s.Remote != "" {
		t.Errorf("Remote defaulted to %q, want empty (receive-only)", s.Remote)
	}
}

func TestParseTenantsExplicit(t *testing.T) {
	specs, err := parseTenants([]byte(`{"tenants":[
		{"name":"a","listen":"127.0.0.2","remote":"10.0.0.1:9000","paths":8,
		 "flowlet_gap":"2ms","relay_interval":250000}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := specs[0]
	if s.Listen != "127.0.0.2" || s.Remote != "10.0.0.1:9000" || s.Paths != 8 {
		t.Errorf("explicit fields lost: %+v", s)
	}
	if time.Duration(s.FlowletGap) != 2*time.Millisecond {
		t.Errorf("FlowletGap = %v, want 2ms (string form)", time.Duration(s.FlowletGap))
	}
	if time.Duration(s.RelayInterval) != 250*time.Microsecond {
		t.Errorf("RelayInterval = %v, want 250µs (nanosecond number form)", time.Duration(s.RelayInterval))
	}
}

func TestParseTenantsErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty list", `{"tenants":[]}`, "no tenants defined"},
		{"no list", `{}`, "no tenants defined"},
		{"missing name", `{"tenants":[{"paths":2}]}`, "name is required"},
		{"duplicate name", `{"tenants":[{"name":"x"},{"name":"x"}]}`, `duplicate tenant name "x"`},
		{"negative paths", `{"tenants":[{"name":"x","paths":-1}]}`, "paths must be positive"},
		{"negative gap", `{"tenants":[{"name":"x","flowlet_gap":-5}]}`, "flowlet_gap must not be negative"},
		{"negative relay", `{"tenants":[{"name":"x","relay_interval":-5}]}`, "relay_interval must not be negative"},
		{"bad duration", `{"tenants":[{"name":"x","flowlet_gap":"fast"}]}`, `invalid duration "fast"`},
		{"unknown field", `{"tenants":[{"name":"x","pathz":2}]}`, `unknown field "pathz"`},
		{"trailing data", `{"tenants":[{"name":"x"}]} {"more":1}`, "trailing data"},
		{"not json", `nope`, "tenants:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTenants([]byte(tc.in))
			if err == nil {
				t.Fatalf("parse accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestFlagSpecValidated: the tenant built from flags passes the same
// validation as a -tenants file, so a negative duration flag exits 1
// instead of serving with it.
func TestFlagSpecValidated(t *testing.T) {
	cases := []struct {
		flag, want string
	}{
		{"-flowlet-gap", "flowlet_gap must not be negative"},
		{"-relay", "relay_interval must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run([]string{tc.flag, "-1ms", "-stats", "0", "-keepalive", "0"},
				strings.NewReader(""), &out, &errOut)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1\nstdout:\n%s", code, out.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr = %q, want substring %q", errOut.String(), tc.want)
			}
		})
	}
}

// FuzzParseTenants: the tenants spec arrives from outside the program.
// parseTenants must never panic; every accepted spec has a unique non-empty
// name, at least one path and positive durations; and re-marshalling the
// accepted specs parses back to the same specs.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		`{"tenants":[{"name":"solo"}]}`,
		`{"tenants":[{"name":"a","listen":"127.0.0.2","remote":"10.0.0.1:9000","paths":8,"flowlet_gap":"2ms","relay_interval":250000}]}`,
		`{"tenants":[{"name":"x"},{"name":"y","paths":2,"flowlet_gap":"1ms"}]}`,
		`{"tenants":[{"name":"x"},{"name":"x"}]}`,
		`{"tenants":[{"name":"x","flowlet_gap":-5}]}`,
		`{"tenants":[{"name":"x","flowlet_gap":"fast"}]}`,
		`{"tenants":[]}`,
		`nope`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := parseTenants(data)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if s.Name == "" || seen[s.Name] {
				t.Fatalf("accepted empty or duplicate name %q in %+v", s.Name, specs)
			}
			seen[s.Name] = true
			if s.Paths < 1 || s.FlowletGap <= 0 || s.RelayInterval <= 0 {
				t.Fatalf("accepted spec out of range: %+v", s)
			}
		}
		re, err := json.Marshal(tenantsFile{Tenants: specs})
		if err != nil {
			t.Fatalf("marshal accepted specs: %v", err)
		}
		again, err := parseTenants(re)
		if err != nil {
			t.Fatalf("re-parse of %s rejected: %v", re, err)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", specs, again)
		}
	})
}

func TestDurationJSONRoundTrip(t *testing.T) {
	d := Duration(1500 * time.Microsecond)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1.5ms"` {
		t.Errorf("marshal = %s", b)
	}
	var back Duration
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Errorf("round trip: %v != %v", back, d)
	}
}
