package proto

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// sampleRecordBatch builds a small batch exercising every encoded field:
// interned routes shared across records, v4 and v6 addresses, an invalid
// (zero) address, paths, timeouts, and one-way probes.
func sampleRecordBatch() *RecordBatch {
	b := &RecordBatch{Host: "host-0", Sent: 12 * sim.Millisecond, Seq: 3}
	r0 := b.AddRoute(Route{
		Kind:   ToRMesh,
		SrcDev: "rnic-0", SrcHost: "host-0",
		DstDev: "rnic-1", DstHost: "host-1",
		SrcIP:     netip.MustParseAddr("10.0.0.1"),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   49152,
		DstQPN:    rnic.QPN(77),
		ProbePath: []topo.LinkID{1, 2, 3},
		AckPath:   []topo.LinkID{3, 2, 1},
	})
	r1 := b.AddRoute(Route{
		Kind:   ServiceTracing,
		SrcDev: "rnic-0", SrcHost: "host-0",
		DstDev: "rnic-9", DstHost: "host-9",
		SrcIP:   netip.MustParseAddr("fd00::1"),
		SrcPort: 50000,
	})
	b.Append(r0, 1, sim.Millisecond, 0, 4500, 300, 250, 0)
	b.Append(r0, 2, 2*sim.Millisecond, RecTimeout, 0, 0, 0, 0)
	b.Append(r1, 3, 3*sim.Millisecond, RecOneWay, 0, 0, 0, 2100)
	return b
}

// FuzzRecordBatchRoundTrip hardens the flat batch codec against
// corrupted wire bytes: UnmarshalBinary must never panic, and every
// accepted buffer must survive a canonical re-encode/decode round trip
// byte-for-byte.
func FuzzRecordBatchRoundTrip(f *testing.F) {
	good, err := sampleRecordBatch().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	empty, _ := (&RecordBatch{Host: "h", Sent: 1}).MarshalBinary()
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{recordWireVersion})
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b RecordBatch
		if err := b.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted buffers re-encode canonically…
		enc, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		// …and the canonical form is a fixed point.
		var b2 RecordBatch
		if err := b2.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of canonical form failed: %v", err)
		}
		enc2, err := b2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if b2.Len() != b.Len() || b2.Routes() != b.Routes() {
			t.Fatalf("round trip changed shape: %d/%d records, %d/%d routes",
				b.Len(), b2.Len(), b.Routes(), b2.Routes())
		}
	})
}

// TestRecordsEncodeDeterministic pins the encoding as a pure function of
// batch contents: building the same batch twice (and once via the boxed
// compatibility path) yields byte-identical buffers. The determinism
// make target runs this at GOMAXPROCS 1 and 8.
func TestRecordsEncodeDeterministic(t *testing.T) {
	a, err := sampleRecordBatch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleRecordBatch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical batches encoded differently")
	}

	// Decode and re-encode: still the same bytes.
	var dec RecordBatch
	if err := dec.UnmarshalBinary(a); err != nil {
		t.Fatal(err)
	}
	c, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("decode/re-encode changed the bytes")
	}
}

// TestRecordsRoundTripValues checks value fidelity through the boxed
// compatibility conversions: Records -> UploadBatch -> Records preserves
// every ProbeResult field.
func TestRecordsRoundTripValues(t *testing.T) {
	b := sampleRecordBatch()
	ub := b.ToUploadBatch()
	back := RecordsFromBatch(ub)
	if back.Len() != b.Len() {
		t.Fatalf("len %d != %d", back.Len(), b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		want, got := b.ResultAt(i), back.ResultAt(i)
		// Path slices may differ in identity; compare contents.
		if len(want.ProbePath) != len(got.ProbePath) || len(want.AckPath) != len(got.AckPath) {
			t.Fatalf("record %d path shape mismatch", i)
		}
		for j := range want.ProbePath {
			if want.ProbePath[j] != got.ProbePath[j] {
				t.Fatalf("record %d probe path differs", i)
			}
		}
		for j := range want.AckPath {
			if want.AckPath[j] != got.AckPath[j] {
				t.Fatalf("record %d ack path differs", i)
			}
		}
		want.ProbePath, got.ProbePath = nil, nil
		want.AckPath, got.AckPath = nil, nil
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("record %d mismatch:\n  want %+v\n  got  %+v", i, want, got)
		}
	}
}

// TestSetFromBatchInternsRoutes: results sharing every addressing field
// and both paths share one route; the same endpoints on another path get
// their own. Every result survives value-for-value, and a warm scratch
// batch converts without allocating.
func TestSetFromBatchInternsRoutes(t *testing.T) {
	base := sampleRecordBatch().ToUploadBatch()
	var ub UploadBatch
	ub.Host, ub.Sent, ub.Seq = base.Host, base.Sent, base.Seq
	for i := 0; i < 4; i++ {
		ub.Results = append(ub.Results, base.Results...)
	}
	rerouted := base.Results[0]
	rerouted.ProbePath = []topo.LinkID{1, 9, 3}
	ub.Results = append(ub.Results, rerouted)

	var b RecordBatch
	b.SetFromBatch(ub)
	if b.Len() != len(ub.Results) {
		t.Fatalf("len %d, want %d", b.Len(), len(ub.Results))
	}
	// sampleRecordBatch has two routes; the rerouted result adds a third.
	if b.Routes() != 3 {
		t.Fatalf("routes = %d, want 3", b.Routes())
	}
	for i, want := range ub.Results {
		if got := b.ResultAt(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d:\n  got  %+v\n  want %+v", i, got, want)
		}
	}
	if b.Host != ub.Host || b.Sent != ub.Sent || b.Seq != ub.Seq {
		t.Fatalf("header %s/%d/%d", b.Host, b.Sent, b.Seq)
	}
	if n := testing.AllocsPerRun(20, func() { b.SetFromBatch(ub) }); n != 0 {
		t.Fatalf("warm SetFromBatch allocates %.0f times", n)
	}
	if fresh := RecordsFromBatch(ub); fresh.Routes() != 3 || fresh.intern != nil {
		t.Fatalf("RecordsFromBatch: %d routes, index kept = %v", fresh.Routes(), fresh.intern != nil)
	}
}
