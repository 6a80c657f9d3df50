package main

// refSeed is the default seed. Round 0 of a run on it must reproduce the
// committed FCT digests below (FNV-1a over each run call's Recorder samples
// in completion order). A change that alters simulated results on purpose
// regenerates them from the "round 0 digests" line an untraced run prints.
const refSeed = 1

var refWebSearch = map[string]uint64{
	"ecmp":          0xbee9dc054907ead9,
	"edge-flowlet":  0x10892faa58911ca5,
	"clove-ecn":     0xf5ef4f2f40bbff35,
	"clove-int":     0xa47bdc18bdeb9a35,
	"presto":        0x70453ebdd3b6e330,
	"mptcp":         0xcbb4647b891f18a6,
	"conga":         0x03c7fe126869264a,
	"letflow":       0x35078bfe65f1d570,
	"clove-latency": 0xe76def1cc7e2cde0,
	"concury":       0xa4f9e32560018c8e,
	"charon":        0xbe7507c19f7dd121,
}

var refK16Storm = map[string]uint64{
	"clove-ecn": 0xdfce3b48ffb6d7ec,
}
