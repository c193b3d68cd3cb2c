package main

import (
	"encoding/json"
	"testing"

	"afraid/internal/core"
	"afraid/internal/tier"
)

// jsonVars renders an expvar map the way /debug/vars serves it.
func jsonVars(t *testing.T, vars map[string]any) map[string]any {
	t.Helper()
	b, err := json.Marshal(vars)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkKeys asserts each key is published with the given JSON type:
// "number", "bool" or "list".
func checkKeys(t *testing.T, section string, got map[string]any, want map[string]string) {
	t.Helper()
	for key, typ := range want {
		v, ok := got[key]
		if !ok {
			t.Errorf("%s lacks %q", section, key)
			continue
		}
		ok = false
		switch typ {
		case "number":
			_, ok = v.(float64)
		case "bool":
			_, ok = v.(bool)
		case "list":
			_, ok = v.([]any)
		}
		if !ok {
			t.Errorf("%s %q = %#v, want a JSON %s", section, key, v, typ)
		}
	}
}

// TestExpvarKeysStable pins the afraid.store and afraid.tier keys that
// monitoring scrapes: each keeps its name and JSON type.
func TestExpvarKeysStable(t *testing.T) {
	devs := make([]core.BlockDevice, 4)
	for i := range devs {
		devs[i] = core.NewMemDevice(1 << 20)
	}
	st, err := core.Open(devs, &core.MemNVRAM{}, core.Options{StripeUnit: 8 << 10, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const extentSize = 16 << 10
	frontSize := int64(8 * (extentSize + 16))
	front := []core.BlockDevice{core.NewMemDevice(frontSize), core.NewMemDevice(frontSize)}
	hybrid, err := tier.Open(st, front, &core.MemNVRAM{}, tier.Options{ExtentSize: extentSize, DisableMigrator: true})
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()
	if _, err := hybrid.WriteAt(make([]byte, 4<<10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteAt(make([]byte, 4<<10), 512<<10); err != nil {
		t.Fatal(err)
	}
	if err := st.FailDisk(1); err != nil {
		t.Fatal(err)
	}

	store := jsonVars(t, storeVars(st))
	checkKeys(t, "afraid.store", store, map[string]string{
		"dead_disks":        "list",
		"dirty_stripes":     "number",
		"damage_bytes":      "number",
		"damaged_stripes":   "number",
		"recovered_stripes": "number",
		"degraded_reads":    "number",
		"nvram_recovered":   "bool",
		"checksum_detected": "number",
		"checksum_repaired": "number",
		"checksum_lost":     "number",
		"quarantined":       "number",
	})
	if d, _ := store["dead_disks"].([]any); len(d) != 1 || d[0] != 1.0 {
		t.Errorf("dead_disks = %v, want [1]", store["dead_disks"])
	}
	if d := store["dirty_stripes"]; d != float64(st.DirtyStripes()) || d == 0.0 {
		t.Errorf("dirty_stripes = %v, want %d (> 0)", d, st.DirtyStripes())
	}

	tv := jsonVars(t, tierVars(hybrid))
	checkKeys(t, "afraid.tier", tv, map[string]string{
		"front_read_hits":   "number",
		"front_read_misses": "number",
		"front_write_hits":  "number",
		"front_hit_ratio":   "number",
		"promotes":          "number",
		"demotes":           "number",
		"evictions":         "number",
		"promoted_bytes":    "number",
		"demoted_bytes":     "number",
		"write_arounds":     "number",
		"resident_extents":  "number",
		"resident_bytes":    "number",
		"dirty_extents":     "number",
		"dirty_bytes":       "number",
		"mirror_failovers":  "number",
		"degraded_writes":   "number",
		"resilvered":        "number",
		"map_recovered":     "bool",
	})
	if p := tv["promotes"]; p != float64(hybrid.TierStats().Promotes) || p == 0.0 {
		t.Errorf("promotes = %v, want %d (> 0)", p, hybrid.TierStats().Promotes)
	}
}
