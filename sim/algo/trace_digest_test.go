package algo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"armbarrier/sim"
	"armbarrier/topology"
)

// traceDigestThreads are the compact thread counts TestTraceDigest
// covers, in the order of each goldenDigests entry.
var traceDigestThreads = [3]int{4, 16, 64}

// goldenDigests pins the simulated event order, not just the totals
// TestGoldenCosts checks: the first 16 hex digits of the SHA-256 of
// every traced event of one default measurement (3 warm-up and 10 timed
// episodes, compact placement) at P = 4, 16 and 64. A scheduling change
// that reorders operations but happens to keep the per-barrier cost
// fails here. On a mismatch the test logs the regenerated table.
var goldenDigests = map[string]map[string][3]string{
	"phytium2000": {
		"cmb":          {"14e716ef0b9eadb2", "c7c8f4e8cc054827", "35de240140454130"},
		"dis":          {"f45ab5125eb7ec77", "224ca2cbeec386f1", "16e185bb0981141c"},
		"dtour":        {"837ae1ca5c769601", "04101b8e3f76214f", "7c5462a0cf673b20"},
		"gcc":          {"837ae1ca5c769601", "aabf73f1bd82a492", "7dfdd2ab2ede7451"},
		"hybrid":       {"837ae1ca5c769601", "2b52c96db3a927f8", "b9a011ed1fb41f6c"},
		"hyper":        {"f0959e8b9d1d2008", "d238283aa8a3737e", "15097e91909c7caa"},
		"llvm":         {"6441bc1b7330106f", "41f784dfc94c3c2f", "bca29caea05d4887"},
		"mcs":          {"19534371c06fe2b7", "1db101239ec58526", "b42a4ffac633b3f6"},
		"ndis2":        {"366c15c492079566", "16704cc78fa699d6", "777f34d32d654e34"},
		"optimized":    {"ff3f5b7a5aaa05f8", "deb5434e4bb0790e", "a40ea015b2b7412b"},
		"ring":         {"00609f16cf584aa8", "698add24ca2f62a5", "cb60a0119599c419"},
		"sense":        {"837ae1ca5c769601", "aabf73f1bd82a492", "7dfdd2ab2ede7451"},
		"sense-futex":  {"22ff4c8cabea533a", "e4975bafca7d8308", "3c1aae24cefd437e"},
		"sense-packed": {"c2a5c2ed03aac646", "9dda1b88b008e5e1", "0c7304fbe0ee087d"},
		"stour":        {"5e0124fbb6ee85d4", "c6f942a7f00b30f0", "fd5d33b9e1ee9c28"},
		"tour":         {"440aac886efd6980", "ecaa5b0cc8c074eb", "d02c07a43a2a300c"},
	},
	"thunderx2": {
		"cmb":          {"4eb3eb4dba8c8fd3", "cf02414ddad24d4e", "adb61d6ca0a3f43f"},
		"dis":          {"d976cc119362f57c", "42fff18cf6899a92", "2543456f38c4e2b8"},
		"dtour":        {"78b9b83ebc100d5f", "7abe566e14b4f54b", "dfe02187ad8fcd07"},
		"gcc":          {"78b9b83ebc100d5f", "408a1283e83cb266", "16d3d4930c93f566"},
		"hybrid":       {"78b9b83ebc100d5f", "408a1283e83cb266", "fdfa69745e4a7805"},
		"hyper":        {"95d65ab0385b7623", "08365e91484d3896", "b7a8b88f3243d044"},
		"llvm":         {"1c6d19984795632e", "1fd617754c2c7c4a", "19169da662171dcf"},
		"mcs":          {"bcfc97ce0b863e59", "61a3589a809a6877", "fca2c306a9cb14d3"},
		"ndis2":        {"0fbc53c0f0679424", "0cee8665fd7b8145", "2254242c618a629b"},
		"optimized":    {"d9336e11215a33d6", "a9b3a192f5429d9c", "9e459fa345880086"},
		"ring":         {"c2e0c53649bced51", "e447e4ebdee9a04b", "aaba980bdf74d59c"},
		"sense":        {"78b9b83ebc100d5f", "408a1283e83cb266", "16d3d4930c93f566"},
		"sense-futex":  {"d9ab5a4fb92a5258", "ab49753d163e89a4", "294b6ce1a118dbfb"},
		"sense-packed": {"109304b496298b91", "57209bc236273588", "97e7a7699987a3cb"},
		"stour":        {"6702ddf4394544bd", "63f177f9a8d99f3c", "8a9f04acce978747"},
		"tour":         {"e8bc617685cfcd89", "ecd092ead03e7172", "ae97878734318b42"},
	},
	"kunpeng920": {
		"cmb":          {"86d709e52442e69b", "256e39def699bab6", "6331f4c1695ec3ad"},
		"dis":          {"4db299760ed3a09b", "c9d117a4cfb36601", "6a6614eeb1b74af8"},
		"dtour":        {"c1ff84c0b2eb67c8", "b699f2f27ca4e101", "d2d1d1922db96800"},
		"gcc":          {"c1ff84c0b2eb67c8", "5b3fa994d46a3f3e", "3de8e7ecac0b8156"},
		"hybrid":       {"c1ff84c0b2eb67c8", "0839c1badb11a60d", "36f5c0c61bf7e03a"},
		"hyper":        {"6a1cf127face3454", "e7526884fd458c35", "2e3a64aa80610d7e"},
		"llvm":         {"d28ac894d5ba7b50", "53b439764fae74ad", "b19cfe66fb655c21"},
		"mcs":          {"a2acd5762c952c9a", "fc573f574ffe9bd5", "132ecf1d6fd95978"},
		"ndis2":        {"28592f1c2631cd80", "18dc4f74eef6ac11", "bc4301f01eae0478"},
		"optimized":    {"ce2cfb4a155a43e0", "f4d2431bfcd8921e", "64718a89e5771ad5"},
		"ring":         {"4d8eb2a4edf7c9f5", "d0e7d56818e45ea3", "1c548c19f362ee58"},
		"sense":        {"c1ff84c0b2eb67c8", "5b3fa994d46a3f3e", "3de8e7ecac0b8156"},
		"sense-futex":  {"e2206dc04121bfc4", "c75fd9fa417c69d5", "376adf1eae6d240a"},
		"sense-packed": {"56cfbc35aed7cbeb", "512da8be7cf4c1a1", "2fcf4f7553d56e0b"},
		"stour":        {"4a1a7fd361b9190b", "9719d184bde19971", "411e9946a1f00e5e"},
		"tour":         {"5976646d5bb37a6c", "a5cfa2b3af9fb69b", "4dca95fe3d25c729"},
	},
}

// traceDigest runs one default measurement of factory with a trace hook
// that folds every event into a SHA-256, and returns its first 16 hex
// digits.
func traceDigest(t *testing.T, m *topology.Machine, P int, factory Factory) string {
	t.Helper()
	place, err := topology.Compact(m, P)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	k, err := sim.New(sim.Config{Machine: m, Placement: place, Trace: func(e sim.Event) {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Time))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Thread))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Core))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Addr))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Cost))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.QueueNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Seq))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.BlockedBy))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.Block)))
		buf = append(buf, e.Block...)
		h.Write(buf)
	}})
	if err != nil {
		t.Fatal(err)
	}
	b := factory(k, P)
	k.Run(func(th *sim.Thread) {
		for e := 0; e < 13; e++ {
			b.Wait(th)
		}
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestTraceDigest(t *testing.T) {
	machines := []*topology.Machine{topology.Phytium2000(), topology.ThunderX2(), topology.Kunpeng920()}
	names := make([]string, 0, len(Registry))
	for name := range Registry {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	mismatch := false
	for _, m := range machines {
		fmt.Fprintf(&table, "\t%q: {\n", m.Name)
		for _, name := range names {
			var got [3]string
			for i, P := range traceDigestThreads {
				got[i] = traceDigest(t, m, P, Registry[name])
			}
			want, ok := goldenDigests[m.Name][name]
			if got != want {
				mismatch = true
				if ok {
					t.Errorf("%s/%s: trace digests %v at P=%v, golden %v", m.Name, name, got, traceDigestThreads, want)
				} else {
					t.Errorf("%s/%s: no golden trace digest", m.Name, name)
				}
			}
			fmt.Fprintf(&table, "\t\t%q: {%q, %q, %q},\n", name, got[0], got[1], got[2])
		}
		table.WriteString("\t},\n")
	}
	if mismatch {
		t.Logf("regenerated goldenDigests entries:\n%s", table.String())
	}
}
