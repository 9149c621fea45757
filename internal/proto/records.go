// Flat, zero-allocation probe-record representation for the ingest
// spine. A RecordBatch carries the same information as an UploadBatch
// but in columnar (struct-of-arrays) form: one interned Route table for
// the slowly-varying addressing fields and parallel typed columns for
// the per-probe measurements. Agents build batches in place, the
// pipeline enqueues and merges them without per-record boxing, analyzer
// stages consume them by index, and the tsdb sketch tier ingests the
// columns directly.
package proto

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"slices"

	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Route holds the addressing fields of a probe record — everything in a
// ProbeResult that is fixed per (pinglist entry, path epoch) rather than
// per probe. Batches intern routes so thousands of records from one
// prober share a handful of Route entries.
type Route struct {
	Kind      ProbeKind
	SrcDev    topo.DeviceID
	SrcHost   topo.HostID
	DstDev    topo.DeviceID
	DstHost   topo.HostID
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstQPN    rnic.QPN
	ProbePath []topo.LinkID
	AckPath   []topo.LinkID
}

// Per-record flag bits (the verdict column).
const (
	RecTimeout uint8 = 1 << 0
	RecOneWay  uint8 = 1 << 1
)

// Records is the columnar store: parallel arrays indexed by record
// number, plus the interned route table the routeIdx column points
// into. The zero value is ready to use.
type Records struct {
	routes []Route

	routeIdx []int32
	seq      []uint64
	sentAt   []sim.Time
	flags    []uint8
	rtt      []sim.Time // NetworkRTT
	probd    []sim.Time // ProberDelay
	respd    []sim.Time // ResponderDelay
	oneway   []sim.Time // OneWayDelay
}

// Len reports the number of records.
func (r *Records) Len() int { return len(r.routeIdx) }

// Routes reports the number of interned routes.
func (r *Records) Routes() int { return len(r.routes) }

// Reset empties the store, keeping all column capacity for reuse.
func (r *Records) Reset() {
	r.routes = r.routes[:0]
	r.routeIdx = r.routeIdx[:0]
	r.seq = r.seq[:0]
	r.sentAt = r.sentAt[:0]
	r.flags = r.flags[:0]
	r.rtt = r.rtt[:0]
	r.probd = r.probd[:0]
	r.respd = r.respd[:0]
	r.oneway = r.oneway[:0]
}

// reserve makes room for n more records in every column.
func (r *Records) reserve(n int) {
	r.routeIdx = slices.Grow(r.routeIdx, n)
	r.seq = slices.Grow(r.seq, n)
	r.sentAt = slices.Grow(r.sentAt, n)
	r.flags = slices.Grow(r.flags, n)
	r.rtt = slices.Grow(r.rtt, n)
	r.probd = slices.Grow(r.probd, n)
	r.respd = slices.Grow(r.respd, n)
	r.oneway = slices.Grow(r.oneway, n)
}

// AddRoute interns a route and returns its index. Callers are expected
// to deduplicate themselves (the agent keys routes by pinglist entry);
// AddRoute never scans.
func (r *Records) AddRoute(rt Route) int32 {
	r.routes = append(r.routes, rt)
	return int32(len(r.routes) - 1)
}

// RouteAt returns the interned route for record i. The pointer aliases
// the batch's table: valid until the next Reset.
func (r *Records) RouteAt(i int) *Route { return &r.routes[r.routeIdx[i]] }

// RouteIndex returns record i's index into the route table.
func (r *Records) RouteIndex(i int) int32 { return r.routeIdx[i] }

// Route returns route table entry ri.
func (r *Records) Route(ri int32) *Route { return &r.routes[ri] }

// Timeout reports whether record i timed out.
func (r *Records) Timeout(i int) bool { return r.flags[i]&RecTimeout != 0 }

// OneWay reports whether record i is a rail-optimized one-way probe.
func (r *Records) OneWay(i int) bool { return r.flags[i]&RecOneWay != 0 }

// Seq returns record i's probe sequence number.
func (r *Records) Seq(i int) uint64 { return r.seq[i] }

// SentAt returns record i's prober-clock send timestamp.
func (r *Records) SentAt(i int) sim.Time { return r.sentAt[i] }

// NetworkRTT returns record i's network round-trip time.
func (r *Records) NetworkRTT(i int) sim.Time { return r.rtt[i] }

// ProberDelay returns record i's prober-side processing delay.
func (r *Records) ProberDelay(i int) sim.Time { return r.probd[i] }

// ResponderDelay returns record i's responder-side processing delay.
func (r *Records) ResponderDelay(i int) sim.Time { return r.respd[i] }

// OneWayDelay returns record i's one-way latency (one-way probes only).
func (r *Records) OneWayDelay(i int) sim.Time { return r.oneway[i] }

// Flags returns record i's raw flag byte.
func (r *Records) Flags(i int) uint8 { return r.flags[i] }

// Append adds one record referencing route table entry route.
func (r *Records) Append(route int32, seq uint64, sentAt sim.Time, flags uint8, rtt, probd, respd, oneway sim.Time) {
	r.routeIdx = append(r.routeIdx, route)
	r.seq = append(r.seq, seq)
	r.sentAt = append(r.sentAt, sentAt)
	r.flags = append(r.flags, flags)
	r.rtt = append(r.rtt, rtt)
	r.probd = append(r.probd, probd)
	r.respd = append(r.respd, respd)
	r.oneway = append(r.oneway, oneway)
}

// DropFirst sheds the n oldest records in place (the agent's buffer-cap
// eviction). Interned routes are kept — indexes of surviving records
// stay valid.
func (r *Records) DropFirst(n int) {
	if n <= 0 {
		return
	}
	if n > r.Len() {
		n = r.Len()
	}
	r.routeIdx = r.routeIdx[:copy(r.routeIdx, r.routeIdx[n:])]
	r.seq = r.seq[:copy(r.seq, r.seq[n:])]
	r.sentAt = r.sentAt[:copy(r.sentAt, r.sentAt[n:])]
	r.flags = r.flags[:copy(r.flags, r.flags[n:])]
	r.rtt = r.rtt[:copy(r.rtt, r.rtt[n:])]
	r.probd = r.probd[:copy(r.probd, r.probd[n:])]
	r.respd = r.respd[:copy(r.respd, r.respd[n:])]
	r.oneway = r.oneway[:copy(r.oneway, r.oneway[n:])]
}

// AppendFrom bulk-appends every record of o, rebasing o's route indexes
// onto r's table. Column copies only — no per-record boxing.
func (r *Records) AppendFrom(o *Records) {
	if o.Len() == 0 && len(o.routes) == 0 {
		return
	}
	base := int32(len(r.routes))
	r.routes = append(r.routes, o.routes...)
	n := len(r.routeIdx)
	r.routeIdx = append(r.routeIdx, o.routeIdx...)
	for i := n; i < len(r.routeIdx); i++ {
		r.routeIdx[i] += base
	}
	r.seq = append(r.seq, o.seq...)
	r.sentAt = append(r.sentAt, o.sentAt...)
	r.flags = append(r.flags, o.flags...)
	r.rtt = append(r.rtt, o.rtt...)
	r.probd = append(r.probd, o.probd...)
	r.respd = append(r.respd, o.respd...)
	r.oneway = append(r.oneway, o.oneway...)
}

// ResultAt materializes record i as a classic ProbeResult, value-
// faithful to what SetFromBatch consumed (path slices alias the route
// table).
func (r *Records) ResultAt(i int) ProbeResult {
	rt := &r.routes[r.routeIdx[i]]
	return ProbeResult{
		Seq:            r.seq[i],
		Kind:           rt.Kind,
		SrcDev:         rt.SrcDev,
		SrcHost:        rt.SrcHost,
		DstDev:         rt.DstDev,
		DstHost:        rt.DstHost,
		SrcIP:          rt.SrcIP,
		DstIP:          rt.DstIP,
		SrcPort:        rt.SrcPort,
		DstQPN:         rt.DstQPN,
		SentAt:         r.sentAt[i],
		Timeout:        r.flags[i]&RecTimeout != 0,
		NetworkRTT:     r.rtt[i],
		ProberDelay:    r.probd[i],
		ResponderDelay: r.respd[i],
		OneWay:         r.flags[i]&RecOneWay != 0,
		OneWayDelay:    r.oneway[i],
		ProbePath:      rt.ProbePath,
		AckPath:        rt.AckPath,
	}
}

// AppendResults materializes every record onto dst and returns it.
func (r *Records) AppendResults(dst []ProbeResult) []ProbeResult {
	for i := 0; i < r.Len(); i++ {
		dst = append(dst, r.ResultAt(i))
	}
	return dst
}

// RecordBatch is the flat equivalent of UploadBatch: the agent's
// periodic upload in columnar form. Host/Sent/Seq have UploadBatch
// semantics.
type RecordBatch struct {
	Host topo.HostID
	Sent sim.Time
	Seq  uint64
	Records

	intern map[routeKey]int32 // SetFromBatch's route index, kept for reuse
}

// ToUploadBatch materializes the batch as a classic UploadBatch for
// legacy consumers (taps, wire transport, tests). Empty batches keep a
// nil Results slice, matching what agents historically uploaded.
func (b *RecordBatch) ToUploadBatch() UploadBatch {
	ub := UploadBatch{Host: b.Host, Sent: b.Sent, Seq: b.Seq}
	if b.Len() > 0 {
		ub.Results = b.AppendResults(make([]ProbeResult, 0, b.Len()))
	}
	return ub
}

// RecordsFromBatch converts a classic UploadBatch into a fresh
// RecordBatch with interned routes (see SetFromBatch).
func RecordsFromBatch(ub UploadBatch) *RecordBatch {
	b := &RecordBatch{}
	b.SetFromBatch(ub)
	b.intern = nil // the batch outlives the conversion; the index does not
	return b
}

// routeKey is the comparable part of a Route: the interning index keys
// on it and checks the two paths with slices.Equal.
type routeKey struct {
	kind             ProbeKind
	srcDev, dstDev   topo.DeviceID
	srcHost, dstHost topo.HostID
	srcIP, dstIP     netip.Addr
	srcPort          uint16
	dstQPN           rnic.QPN
}

// SetFromBatch replaces b's contents with ub, interning routes: results
// that share every addressing field and both paths share one route
// table entry, in first-seen order. Column capacity is reused, so a
// long-lived scratch batch converts without per-call allocation once
// warm. Path slices alias ub's.
func (b *RecordBatch) SetFromBatch(ub UploadBatch) {
	b.Host, b.Sent, b.Seq = ub.Host, ub.Sent, ub.Seq
	b.Reset()
	b.reserve(len(ub.Results))
	if b.intern == nil {
		b.intern = make(map[routeKey]int32)
	} else {
		clear(b.intern)
	}
	for i := range ub.Results {
		p := &ub.Results[i]
		k := routeKey{
			kind: p.Kind, srcDev: p.SrcDev, dstDev: p.DstDev,
			srcHost: p.SrcHost, dstHost: p.DstHost,
			srcIP: p.SrcIP, dstIP: p.DstIP,
			srcPort: p.SrcPort, dstQPN: p.DstQPN,
		}
		ri, ok := b.intern[k]
		if !ok || !slices.Equal(b.routes[ri].ProbePath, p.ProbePath) ||
			!slices.Equal(b.routes[ri].AckPath, p.AckPath) {
			// New route, or the same endpoints on another path: the
			// index follows the latest path.
			ri = b.AddRoute(Route{
				Kind:      p.Kind,
				SrcDev:    p.SrcDev,
				SrcHost:   p.SrcHost,
				DstDev:    p.DstDev,
				DstHost:   p.DstHost,
				SrcIP:     p.SrcIP,
				DstIP:     p.DstIP,
				SrcPort:   p.SrcPort,
				DstQPN:    p.DstQPN,
				ProbePath: p.ProbePath,
				AckPath:   p.AckPath,
			})
			b.intern[k] = ri
		}
		var fl uint8
		if p.Timeout {
			fl |= RecTimeout
		}
		if p.OneWay {
			fl |= RecOneWay
		}
		b.Append(ri, p.Seq, p.SentAt, fl, p.NetworkRTT, p.ProberDelay, p.ResponderDelay, p.OneWayDelay)
	}
}

// RecordSink receives flat record batches. Delivered batches are
// borrowed: they are valid only for the duration of the call and the
// receiver must copy out (AppendFrom) anything it keeps.
type RecordSink interface {
	UploadRecords(b *RecordBatch)
}

// --- flat binary encoding ----------------------------------------------
//
// Deterministic little-endian layout (version 1):
//
//	u8  version
//	str host            (u32 len + bytes)
//	i64 sent, u64 seq
//	u32 nRoutes, then per route:
//	    u8 kind; str srcDev, srcHost, dstDev, dstHost;
//	    addr srcIP, dstIP (u8 len + bytes, len ∈ {0,4,16});
//	    u16 srcPort; u32 dstQPN;
//	    u32 nProbe + i64 links; u32 nAck + i64 links
//	u32 nRecords, then full columns in order:
//	    routeIdx (u32 each), seq (u64), sentAt (i64), flags (u8),
//	    rtt, probd, respd, oneway (i64 each)

const (
	recordWireVersion = 1
	maxWireString     = 4096
	maxWirePath       = 1 << 16
)

var errShortBuffer = errors.New("proto: record batch truncated")

type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wireWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wireWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *wireWriter) str(s string) { w.u32(uint32(len(s))); w.b = append(w.b, s...) }
func (w *wireWriter) addr(a netip.Addr) {
	if !a.IsValid() {
		w.u8(0)
		return
	}
	raw := a.As16()
	if a.Is4() {
		v4 := a.As4()
		w.u8(4)
		w.b = append(w.b, v4[:]...)
		return
	}
	w.u8(16)
	w.b = append(w.b, raw[:]...)
}
func (w *wireWriter) path(p []topo.LinkID) {
	w.u32(uint32(len(p)))
	for _, l := range p {
		w.i64(int64(l))
	}
}

type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail() { r.err = errShortBuffer }
func (r *wireReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *wireReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}
func (r *wireReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}
func (r *wireReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *wireReader) i64() int64 { return int64(r.u64()) }

// str reads a string, returning like itself when the bytes match: routes
// of one batch mostly repeat their neighbour's devices and hosts, so
// decode shares those strings instead of allocating each one.
func (r *wireReader) str(like string) string {
	n := int(r.u32())
	if r.err != nil || n > maxWireString || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	raw := r.b[r.off : r.off+n]
	r.off += n
	if string(raw) == like {
		return like
	}
	return string(raw)
}
func (r *wireReader) addr() netip.Addr {
	switch n := r.u8(); n {
	case 0:
		return netip.Addr{}
	case 4:
		if r.err != nil || r.off+4 > len(r.b) {
			r.fail()
			return netip.Addr{}
		}
		var v4 [4]byte
		copy(v4[:], r.b[r.off:])
		r.off += 4
		return netip.AddrFrom4(v4)
	case 16:
		if r.err != nil || r.off+16 > len(r.b) {
			r.fail()
			return netip.Addr{}
		}
		var v16 [16]byte
		copy(v16[:], r.b[r.off:])
		r.off += 16
		return netip.AddrFrom16(v16)
	default:
		r.fail()
		return netip.Addr{}
	}
}
func (r *wireReader) path() []topo.LinkID {
	n := int(r.u32())
	if r.err != nil || n > maxWirePath || r.off+8*n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	p := make([]topo.LinkID, n)
	for i := range p {
		p[i] = topo.LinkID(r.i64())
	}
	return p
}

// MarshalBinary encodes the batch in the deterministic flat layout.
func (b *RecordBatch) MarshalBinary() ([]byte, error) { return b.AppendBinary(nil) }

// AppendBinary appends the batch's flat encoding to dst and returns the
// extended buffer — MarshalBinary without the allocation when dst has
// room. The first byte written is the codec version.
func (b *RecordBatch) AppendBinary(dst []byte) ([]byte, error) {
	w := wireWriter{b: slices.Grow(dst, 64+len(b.routes)*96+b.Len()*41)}
	w.u8(recordWireVersion)
	w.str(string(b.Host))
	w.i64(int64(b.Sent))
	w.u64(b.Seq)
	w.u32(uint32(len(b.routes)))
	for i := range b.routes {
		rt := &b.routes[i]
		w.u8(uint8(rt.Kind))
		w.str(string(rt.SrcDev))
		w.str(string(rt.SrcHost))
		w.str(string(rt.DstDev))
		w.str(string(rt.DstHost))
		w.addr(rt.SrcIP)
		w.addr(rt.DstIP)
		w.u16(rt.SrcPort)
		w.u32(uint32(rt.DstQPN))
		w.path(rt.ProbePath)
		w.path(rt.AckPath)
	}
	n := b.Len()
	w.u32(uint32(n))
	for i := 0; i < n; i++ {
		w.u32(uint32(b.routeIdx[i]))
	}
	for i := 0; i < n; i++ {
		w.u64(b.seq[i])
	}
	for i := 0; i < n; i++ {
		w.i64(int64(b.sentAt[i]))
	}
	w.b = append(w.b, b.flags...)
	for i := 0; i < n; i++ {
		w.i64(int64(b.rtt[i]))
	}
	for i := 0; i < n; i++ {
		w.i64(int64(b.probd[i]))
	}
	for i := 0; i < n; i++ {
		w.i64(int64(b.respd[i]))
	}
	for i := 0; i < n; i++ {
		w.i64(int64(b.oneway[i]))
	}
	return w.b, nil
}

// UnmarshalBinary decodes data into b, replacing its contents. It never
// panics on malformed input: any truncation, length-cap violation, bad
// probe kind, or out-of-range route index yields an error.
func (b *RecordBatch) UnmarshalBinary(data []byte) error {
	r := wireReader{b: data}
	if v := r.u8(); r.err == nil && v != recordWireVersion {
		return errors.New("proto: unsupported record batch version")
	}
	host := r.str("")
	sent := sim.Time(r.i64())
	seq := r.u64()

	nr := int(r.u32())
	// Each route costs ≥ 32 encoded bytes; cap against the buffer so a
	// forged count can't force a giant allocation.
	if r.err != nil || nr > len(data)/32+1 {
		return errShortBuffer
	}
	routes := make([]Route, 0, nr)
	prev := Route{SrcHost: topo.HostID(host)}
	for i := 0; i < nr; i++ {
		kind := ProbeKind(r.u8())
		if r.err == nil && (kind < ToRMesh || kind > ServiceTracing) {
			return errors.New("proto: bad probe kind")
		}
		rt := Route{
			Kind:    kind,
			SrcDev:  topo.DeviceID(r.str(string(prev.SrcDev))),
			SrcHost: topo.HostID(r.str(string(prev.SrcHost))),
			DstDev:  topo.DeviceID(r.str(string(prev.DstDev))),
			DstHost: topo.HostID(r.str(string(prev.DstHost))),
			SrcIP:   r.addr(),
			DstIP:   r.addr(),
		}
		rt.SrcPort = r.u16()
		rt.DstQPN = rnic.QPN(r.u32())
		rt.ProbePath = r.path()
		rt.AckPath = r.path()
		if r.err != nil {
			return r.err
		}
		routes = append(routes, rt)
		prev = rt
	}

	n := int(r.u32())
	// Each record costs exactly 41 encoded bytes.
	if r.err != nil || n > (len(data)-r.off)/41+1 {
		return errShortBuffer
	}
	dec := RecordBatch{Host: topo.HostID(host), Sent: sent, Seq: seq}
	dec.routes = routes
	if n > 0 {
		dec.routeIdx = make([]int32, n)
		dec.seq = make([]uint64, n)
		dec.sentAt = make([]sim.Time, n)
		dec.flags = make([]uint8, n)
		dec.rtt = make([]sim.Time, n)
		dec.probd = make([]sim.Time, n)
		dec.respd = make([]sim.Time, n)
		dec.oneway = make([]sim.Time, n)
	}
	for i := 0; i < n; i++ {
		ri := r.u32()
		if r.err == nil && int(ri) >= len(routes) {
			return errors.New("proto: route index out of range")
		}
		dec.routeIdx[i] = int32(ri)
	}
	for i := 0; i < n; i++ {
		dec.seq[i] = r.u64()
	}
	for i := 0; i < n; i++ {
		dec.sentAt[i] = sim.Time(r.i64())
	}
	for i := 0; i < n; i++ {
		dec.flags[i] = r.u8()
	}
	for i := 0; i < n; i++ {
		dec.rtt[i] = sim.Time(r.i64())
	}
	for i := 0; i < n; i++ {
		dec.probd[i] = sim.Time(r.i64())
	}
	for i := 0; i < n; i++ {
		dec.respd[i] = sim.Time(r.i64())
	}
	for i := 0; i < n; i++ {
		dec.oneway[i] = sim.Time(r.i64())
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return errors.New("proto: trailing bytes after record batch")
	}
	*b = dec
	return nil
}
