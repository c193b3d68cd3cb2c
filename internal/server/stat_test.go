package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"afraid/internal/core"
	"afraid/internal/obs"
	"afraid/internal/tier"
)

func TestStatRoundTrip(t *testing.T) {
	fields := []obs.Field{
		{Name: "core.mode", Value: uint64(core.Raid5)},
		{Name: "core.dirty_stripes", Value: int64(17)},
		{Name: "core.nvram_recovered", Value: true},
		{Name: "tier.map_recovered", Value: false},
		{Name: "server.read_p50", Value: int64(120 * time.Microsecond)},
		{Name: "signed", Value: int64(-1)},
		{Name: "max", Value: uint64(math.MaxUint64)},
	}
	got, err := decodeStat(appendStat(nil, fields))
	if err != nil {
		t.Fatal(err)
	}
	want := Stat{
		"core.mode": uint64(core.Raid5), "core.dirty_stripes": 17,
		"core.nvram_recovered": 1, "tier.map_recovered": 0,
		"server.read_p50": uint64(120 * time.Microsecond),
		"signed":          math.MaxUint64, "max": math.MaxUint64,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stat round trip: got %v want %v", got, want)
	}
	if got.ModeString() != "raid5" {
		t.Fatalf("ModeString() = %q, want raid5", got.ModeString())
	}
}

// TestStatTruncatedPayloads is the decoder's rejection table: STAT
// payloads arrive from outside the program.
func TestStatTruncatedPayloads(t *testing.T) {
	valid := appendStat(nil, []obs.Field{{Name: "core.writes", Value: uint64(7)}, {Name: "core.reads", Value: uint64(9)}})
	entry := func(name string) []byte {
		b := append([]byte{byte(len(name))}, name...)
		return append(b, 0, 0, 0, 0, 0, 0, 0, 1)
	}
	payload := func(count uint16, entries ...[]byte) []byte {
		b := []byte{statTag, byte(count >> 8), byte(count)}
		return append(b, bytes.Join(entries, nil)...)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"tag only", []byte{statTag}},
		{"fixed-field version 1", append([]byte{1, 0}, make([]byte, 56)...)},
		{"fixed-field version 4", append([]byte{4, 0}, make([]byte, 7*8+13*8)...)},
		{"unknown tag", []byte{0x7f, 0, 0}},
		{"count beyond payload", payload(math.MaxUint16, entry("a"))},
		{"count one, no entry", payload(1)},
		{"entry cut short", valid[:len(valid)-1]},
		{"second entry missing", payload(2, entry("core.dirty_stripes"))},
		{"name runs past payload", payload(1, []byte{200, 'a', 0, 0, 0, 0, 0, 0, 0, 0})},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		{"zero-length name", payload(1, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})},
		{"duplicate name", payload(2, entry("core.reads"), entry("core.reads"))},
	}
	for _, c := range cases {
		if st, err := decodeStat(c.b); err == nil {
			t.Errorf("%s: decodeStat accepted %x as %v", c.name, c.b, st)
		}
	}
	if _, err := decodeStat(payload(0)); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
}

// sortedFields re-encodes a decoded snapshot in name order.
func sortedFields(st Stat) []obs.Field {
	fs := make([]obs.Field, 0, len(st))
	for name, v := range st {
		fs = append(fs, obs.Field{Name: name, Value: v})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	return fs
}

func FuzzDecodeStat(f *testing.F) {
	f.Add(appendStat(nil, []obs.Field{{Name: "core.writes", Value: uint64(42)}, {Name: "tier.map_recovered", Value: true}}))
	f.Add(appendStat(nil, nil))
	f.Add([]byte{})
	f.Add(append([]byte{1, 0}, make([]byte, 56)...))
	f.Add([]byte{statTag, 0xff, 0xff, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeStat(b)
		if err != nil {
			return
		}
		// An accepted payload re-encodes to one of the same size (entry
		// order aside) that decodes to the same snapshot, and that
		// encoding is a fixed point.
		enc := appendStat(nil, sortedFields(st))
		if len(enc) != len(b) {
			t.Fatalf("re-encoded %d-byte payload as %d bytes", len(b), len(enc))
		}
		again, err := decodeStat(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("re-encode changed snapshot: %v vs %v", again, st)
		}
		if !bytes.Equal(appendStat(nil, sortedFields(again)), enc) {
			t.Fatal("encoding of a decoded snapshot is not stable")
		}
	})
}

// wantStatFields walks every exported field of a stats struct by
// reflection and returns the STAT entries it must produce. A field of a
// kind STAT cannot carry fails the test rather than going missing.
func wantStatFields(t *testing.T, prefix string, stats any) map[string]uint64 {
	t.Helper()
	v := reflect.ValueOf(stats)
	want := make(map[string]uint64, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		name := prefix + obs.SnakeCase(sf.Name)
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			want[name] = uint64(fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			want[name] = fv.Uint()
		case reflect.Bool:
			want[name] = 0
			if fv.Bool() {
				want[name] = 1
			}
		default:
			t.Fatalf("%T.%s has kind %v, which STAT cannot carry", stats, sf.Name, fv.Kind())
		}
	}
	return want
}

// serveBackend serves be on a loopback listener for the test's
// lifetime and returns a connected client.
func serveBackend(t *testing.T, be Backend) *Client {
	t.Helper()
	srv := New(be, Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveDone; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// openTier opens a hybrid store (two mirrored front devices over a
// four-disk AFRAID back store) with its background work off, so its
// counters hold still between I/O and STAT.
func openTier(t *testing.T) *tier.Store {
	t.Helper()
	devs := make([]core.BlockDevice, 4)
	for i := range devs {
		devs[i] = core.NewMemDevice(1 << 20)
	}
	back, err := core.Open(devs, &core.MemNVRAM{}, core.Options{StripeUnit: 8 << 10, DisableScrubber: true})
	if err != nil {
		t.Fatal(err)
	}
	const extentSize = 16 << 10
	frontSize := int64(8 * (extentSize + 16))
	front := []core.BlockDevice{core.NewMemDevice(frontSize), core.NewMemDevice(frontSize)}
	hybrid, err := tier.Open(back, front, &core.MemNVRAM{}, tier.Options{ExtentSize: extentSize, DisableMigrator: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		hybrid.Close()
		back.Close()
	})
	return hybrid
}

// writeRead runs n 4 KiB write-then-read pairs so counters and latency
// histograms have samples.
func writeRead(t *testing.T, c *Client, n int) {
	t.Helper()
	buf := make([]byte, 4<<10)
	for i := 0; i < n; i++ {
		if _, err := c.WriteAt(buf, int64(i)*int64(len(buf))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(buf, int64(i)*int64(len(buf))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatCarriesEveryField pins that every exported field of core.Stats
// and tier.TierStats reaches the client under its derived, prefixed
// name with the backend's value, together with the server's own
// entries; the tier half also shows live front-tier counters (promotes,
// hits, resident bytes) crossing the wire. Adding a field to either
// struct needs no protocol change; dropping one from STAT fails here.
func TestStatCarriesEveryField(t *testing.T) {
	check := func(t *testing.T, c *Client, want map[string]uint64) {
		t.Helper()
		st, err := c.Stat(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range want {
			got, ok := st[name]
			if !ok {
				t.Errorf("STAT lacks %s", name)
			} else if got != v {
				t.Errorf("STAT %s = %d, want %d", name, got, v)
			}
		}
		if st["server.capacity"] != uint64(c.Capacity()) {
			t.Errorf("server.capacity = %d, want %d", st["server.capacity"], c.Capacity())
		}
		for _, op := range []string{"read", "write"} {
			p50, p95, p99 := st["server."+op+"_p50"], st["server."+op+"_p95"], st["server."+op+"_p99"]
			if p50 == 0 || p50 > p95 || p95 > p99 {
				t.Errorf("server %s percentiles p50=%d p95=%d p99=%d, want 0 < p50 <= p95 <= p99", op, p50, p95, p99)
			}
		}
		if st.ModeString() != "afraid" {
			t.Errorf("mode %q, want afraid", st.ModeString())
		}
	}

	t.Run("core", func(t *testing.T) {
		_, store, addr := startServer(t, core.Options{Mode: core.Afraid, DisableScrubber: true}, Options{})
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		writeRead(t, c, 32)
		want := wantStatFields(t, "core.", store.Stats())
		if want["core.writes"] == 0 || want["core.dirty_stripes"] == 0 {
			t.Fatalf("workload left core counters empty: %v", want)
		}
		check(t, c, want)
	})

	t.Run("tier", func(t *testing.T) {
		hybrid := openTier(t)
		c := serveBackend(t, hybrid)
		writeRead(t, c, 8)
		want := wantStatFields(t, "core.", hybrid.Back().Stats())
		for name, v := range wantStatFields(t, "tier.", hybrid.TierStats()) {
			want[name] = v
		}
		for _, name := range []string{"tier.promotes", "tier.front_read_hits", "tier.resident_bytes"} {
			if want[name] == 0 {
				t.Fatalf("workload left %s = 0: %v", name, want)
			}
		}
		check(t, c, want)
	})
}

// TestStatNegotiationOverWire checks STAT against a live server from
// both kinds of client. Clients from before the named-entry format sent
// Length 0 or a wanted version (1 to 4) in the request; STAT ignores
// Length, so every such frame gets the same tagged payload, which
// decodes. The current Client sees live counters and ordered latency
// percentiles, and a bare core store sends no tier entries.
func TestStatNegotiationOverWire(t *testing.T) {
	_, _, addr := startServer(t, core.Options{Mode: core.Afraid, ScrubIdle: time.Hour, DisableScrubber: true}, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeRead(t, c, 32)

	raw := dialRaw(t, addr)
	for _, length := range []uint32{0, 1, 4} {
		frame := AppendRequest(nil, &Request{Op: OpStat, ID: uint64(length) + 1, Length: length})
		if _, err := raw.nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponse(raw.br, DefaultMaxPayload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("Length=%d STAT status %v", length, resp.Status)
		}
		if len(resp.Data) == 0 || resp.Data[0] != statTag {
			t.Fatalf("Length=%d STAT payload % x, want tag %#x", length, resp.Data, statTag)
		}
		st, err := decodeStat(resp.Data)
		if err != nil {
			t.Fatalf("Length=%d STAT payload does not decode: %v", length, err)
		}
		if st["core.writes"] == 0 || st["core.reads"] == 0 {
			t.Fatalf("Length=%d STAT counters empty: %v", length, st)
		}
	}

	st, err := c.Stat(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st["core.writes"] == 0 || st["core.reads"] == 0 {
		t.Fatalf("stat counters empty: %v", st)
	}
	for _, op := range []string{"read", "write"} {
		for _, q := range []string{"p50", "p95", "p99"} {
			if name := "server." + op + "_" + q; st[name] == 0 {
				t.Errorf("STAT percentile %s = 0, want > 0", name)
			}
		}
	}
	if st["server.read_p50"] > st["server.read_p99"] || st["server.write_p50"] > st["server.write_p99"] {
		t.Errorf("percentiles not ordered: %v", st)
	}
	for name := range st {
		if strings.HasPrefix(name, "tier.") {
			t.Errorf("bare store reported tier entry %s", name)
		}
	}
}

// TestStatTierCountersOverWire serves a hybrid tier.Store and checks
// that STAT carries live tier counters end to end.
func TestStatTierCountersOverWire(t *testing.T) {
	c := serveBackend(t, openTier(t))
	writeRead(t, c, 8)
	st, err := c.Stat(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tier.promotes", "tier.front_read_hits", "tier.resident_bytes"} {
		if st[name] == 0 {
			t.Fatalf("hybrid backend reported %s = 0 over the wire: %v", name, st)
		}
	}
}
