package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"rpingmesh/internal/controller"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// memSink collects uploads.
type memSink struct {
	mu      sync.Mutex
	batches []proto.UploadBatch
}

func (m *memSink) Upload(b proto.UploadBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches = append(m.batches, b)
}

func (m *memSink) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.batches)
}

func testBackend(t *testing.T) (*controller.Controller, *topo.Topology) {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1, HostsPerToR: 2, RNICsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	return controller.New(sim.New(1), tp, controller.Config{}), tp
}

func startServer(t *testing.T, ctrl proto.Controller, sink proto.UploadSink) (*Server, *Client) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", ctrl, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func allInfos(tp *topo.Topology) []proto.RNICInfo {
	var infos []proto.RNICInfo
	for i, id := range tp.AllRNICs() {
		r := tp.RNICs[id]
		infos = append(infos, proto.RNICInfo{Dev: id, Host: r.Host, ToR: r.ToR, IP: r.IP, GID: r.GID, QPN: rnic.QPN(100 + i)})
	}
	return infos
}

func TestRegisterLookupOverTCP(t *testing.T) {
	ctrl, tp := testBackend(t)
	_, cli := startServer(t, ctrl, nil)

	infos := allInfos(tp)
	cli.Register(infos)
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}
	if ctrl.Registered() != len(infos) {
		t.Fatalf("registered = %d, want %d", ctrl.Registered(), len(infos))
	}
	got, ok := cli.Lookup(infos[0].IP)
	if !ok {
		t.Fatal("Lookup failed over TCP")
	}
	if got.Dev != infos[0].Dev || got.QPN != infos[0].QPN || got.GID != infos[0].GID {
		t.Fatalf("Lookup = %+v, want %+v", got, infos[0])
	}
	if _, ok := cli.Lookup(netip.AddrFrom4([4]byte{1, 2, 3, 4})); ok {
		t.Fatal("Lookup of unknown IP succeeded")
	}
}

func TestPinglistsOverTCP(t *testing.T) {
	ctrl, tp := testBackend(t)
	_, cli := startServer(t, ctrl, nil)
	cli.Register(allInfos(tp))

	host := tp.AllHosts()[0]
	direct := ctrl.Pinglists(host)
	remote := cli.Pinglists(host)
	if len(remote) != len(direct) {
		t.Fatalf("pinglists over TCP = %d, direct = %d", len(remote), len(direct))
	}
	for i := range direct {
		if remote[i].Kind != direct[i].Kind || remote[i].Src != direct[i].Src ||
			remote[i].Interval != direct[i].Interval || len(remote[i].Targets) != len(direct[i].Targets) {
			t.Fatalf("pinglist %d mismatch:\n tcp: %+v\n mem: %+v", i, remote[i], direct[i])
		}
		for j := range direct[i].Targets {
			if remote[i].Targets[j] != direct[i].Targets[j] {
				t.Fatalf("target %d/%d mismatch", i, j)
			}
		}
	}
}

// recSink collects flat uploads. It also satisfies proto.UploadSink, as
// the Server's constructor requires, but boxed deliveries are counted
// separately so tests can tell which path the server took.
type recSink struct {
	mu      sync.Mutex
	batches []*proto.RecordBatch
	boxed   int
}

func (m *recSink) UploadRecords(b *proto.RecordBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches = append(m.batches, b)
}

func (m *recSink) Upload(proto.UploadBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.boxed++
}

func (m *recSink) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.batches) + m.boxed
}

// multiRouteBatch builds an upload of routes×perRoute results: every
// route repeats across its results, paths are present on some routes,
// and the results mix timeouts, one-way probes, v4 and v6 addresses.
func multiRouteBatch(routes, perRoute int) proto.UploadBatch {
	ub := proto.UploadBatch{Host: "host-0", Sent: 12345 * sim.Microsecond, Seq: 7}
	for i := 0; i < perRoute; i++ {
		for r := 0; r < routes; r++ {
			p := proto.ProbeResult{
				Seq:            uint64(i*routes + r + 1),
				Kind:           proto.ProbeKind(int(proto.ToRMesh) + r%3),
				SrcDev:         "host-0/rnic0",
				SrcHost:        "host-0",
				DstDev:         topo.DeviceID("host-" + string(rune('a'+r)) + "/rnic1"),
				DstHost:        topo.HostID("host-" + string(rune('a'+r))),
				SrcIP:          netip.AddrFrom4([4]byte{10, 0, 0, 1}),
				DstIP:          netip.AddrFrom4([4]byte{10, 0, 1, byte(r)}),
				SrcPort:        uint16(49152 + r),
				DstQPN:         rnic.QPN(100 + r),
				SentAt:         sim.Time(i) * sim.Millisecond,
				NetworkRTT:     sim.Time(2000 + 10*r + i),
				ProberDelay:    sim.Time(300 + i),
				ResponderDelay: sim.Time(250 + r),
			}
			if r%2 == 0 {
				p.ProbePath = []topo.LinkID{topo.LinkID(r), 40, 41}
				p.AckPath = []topo.LinkID{41, 40, topo.LinkID(r)}
			}
			if r%4 == 3 {
				p.DstIP = netip.MustParseAddr("fd00::9")
			}
			switch {
			case (i+r)%5 == 0:
				p.Timeout = true
				p.NetworkRTT, p.ProberDelay, p.ResponderDelay = 0, 0, 0
			case r%3 == 1:
				p.OneWay = true
				p.OneWayDelay = sim.Time(1500 + r)
			}
			ub.Results = append(ub.Results, p)
		}
	}
	return ub
}

// An upload crosses TCP as a flat record frame and arrives with every
// field intact — flat at a RecordSink (with its routes interned), boxed
// at a plain UploadSink.
func TestUploadOverTCP(t *testing.T) {
	batch := multiRouteBatch(6, 5)

	t.Run("record-sink", func(t *testing.T) {
		sink := &recSink{}
		_, cli := startServer(t, nil, sink)
		cli.Upload(batch)
		if err := cli.Err(); err != nil {
			t.Fatal(err)
		}
		if len(sink.batches) != 1 || sink.boxed != 0 {
			t.Fatalf("sink got %d flat and %d boxed batches, want 1 flat", len(sink.batches), sink.boxed)
		}
		got := sink.batches[0]
		if got.Host != batch.Host || got.Sent != batch.Sent || got.Seq != batch.Seq {
			t.Fatalf("header = %s/%d/%d, want %s/%d/%d", got.Host, got.Sent, got.Seq, batch.Host, batch.Sent, batch.Seq)
		}
		if got.Len() != len(batch.Results) {
			t.Fatalf("records = %d, want %d", got.Len(), len(batch.Results))
		}
		if got.Routes() >= got.Len() {
			t.Fatalf("routes = %d for %d records: not interned", got.Routes(), got.Len())
		}
		for i, want := range batch.Results {
			if r := got.ResultAt(i); !reflect.DeepEqual(r, want) {
				t.Fatalf("record %d:\n got  %+v\n want %+v", i, r, want)
			}
		}
	})

	t.Run("upload-sink", func(t *testing.T) {
		sink := &memSink{}
		_, cli := startServer(t, nil, sink)
		cli.Upload(batch)
		if err := cli.Err(); err != nil {
			t.Fatal(err)
		}
		if sink.count() != 1 {
			t.Fatalf("sink got %d batches", sink.count())
		}
		if got := sink.batches[0]; !reflect.DeepEqual(got, batch) {
			t.Fatalf("batch:\n got  %+v\n want %+v", got, batch)
		}
	})
}

// A flat frame with an unknown codec version is garbage: the server
// drops the connection and the sink never sees it.
func TestUnknownRecordVersionDropsConnection(t *testing.T) {
	sink := &recSink{}
	srv, _ := startServer(t, nil, sink)
	rb := proto.RecordsFromBatch(multiRouteBatch(2, 2))
	body, err := rb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body[0] = 2
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after version-2 frame = %d bytes, %v; want EOF", n, err)
	}
	if sink.count() != 0 {
		t.Fatalf("sink received %d batches from a rejected frame", sink.count())
	}
}

func TestConcurrentClients(t *testing.T) {
	ctrl, tp := testBackend(t)
	sink := &memSink{}
	srv, _ := startServer(t, ctrl, sink)

	const clients = 8
	const uploads = 20
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			cli.Register(allInfos(tp))
			for j := 0; j < uploads; j++ {
				cli.Upload(proto.UploadBatch{Host: "h", Sent: sim.Time(j)})
				cli.Pinglists(tp.AllHosts()[0])
			}
			if err := cli.Err(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if sink.count() != clients*uploads {
		t.Fatalf("sink got %d batches, want %d", sink.count(), clients*uploads)
	}
}

// One client shared by several goroutines: uploads and control calls
// interleave on one connection, and the per-client scratch (conversion
// batch, frame buffers) never mixes two requests.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	ctrl, tp := testBackend(t)
	sink := &recSink{}
	_, cli := startServer(t, ctrl, sink)
	cli.Register(allInfos(tp))

	const workers, uploads = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < uploads; j++ {
				ub := multiRouteBatch(w+1, j%3+1)
				ub.Seq = uint64(w*uploads + j)
				cli.Upload(ub)
				if len(cli.Pinglists(tp.AllHosts()[0])) == 0 {
					t.Error("no pinglists")
				}
			}
		}()
	}
	wg.Wait()
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}
	if len(sink.batches) != workers*uploads {
		t.Fatalf("sink got %d batches, want %d", len(sink.batches), workers*uploads)
	}
	for _, got := range sink.batches {
		w, j := int(got.Seq)/uploads, int(got.Seq)%uploads
		want := multiRouteBatch(w+1, j%3+1)
		if got.Len() != len(want.Results) || got.Routes() != w+1 {
			t.Fatalf("batch %d: %d records on %d routes, want %d on %d", got.Seq, got.Len(), got.Routes(), len(want.Results), w+1)
		}
		for i := range want.Results {
			if r := got.ResultAt(i); !reflect.DeepEqual(r, want.Results[i]) {
				t.Fatalf("batch %d record %d differs", got.Seq, i)
			}
		}
	}
}

func TestServerWithoutBackends(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if got := cli.Pinglists("h"); got != nil {
		t.Fatal("pinglists without controller should fail")
	}
	if _, ok := cli.Lookup(netip.AddrFrom4([4]byte{1, 2, 3, 4})); ok {
		t.Fatal("lookup without controller should fail")
	}
	cli.Upload(proto.UploadBatch{})
	// Fire-and-forget errors do not poison the connection (server
	// answered with an error response, transport is fine).
	if err := cli.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
}

func TestGarbageFrameDropsConnection(t *testing.T) {
	ctrl, _ := testBackend(t)
	srv, _ := startServer(t, ctrl, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header advertising more than MaxFrame must be rejected.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server responded to oversized frame")
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{Op: opPinglists, Host: "host-1"}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Host != in.Host {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestServerDoubleClose(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

// A Controller restart must be invisible to Agents: the client redials
// and the next request (re-registration) succeeds.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	ctrl, tp := testBackend(t)
	srv, err := Listen("127.0.0.1:0", ctrl, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}

	// Restart the controller endpoint on the same address.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Listen(addr, ctrl, nil)
	if err != nil {
		t.Skipf("cannot rebind %s immediately: %v", addr, err)
	}
	defer srv2.Close()

	// The first call may hit the dead connection; the client redials.
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatalf("client did not recover: %v", err)
	}
	if got := cli.Pinglists(tp.AllHosts()[0]); len(got) == 0 {
		t.Fatal("no pinglists after reconnect")
	}
}

// A closed client stays closed: no zombie reconnects.
func TestClosedClientStaysClosed(t *testing.T) {
	ctrl, tp := testBackend(t)
	_, cli := startServer(t, ctrl, nil)
	cli.Register(allInfos(tp))
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if got := cli.Pinglists(tp.AllHosts()[0]); got != nil {
		t.Fatal("closed client served a request")
	}
	if cli.Err() == nil {
		t.Fatal("closed client reports no error")
	}
}
