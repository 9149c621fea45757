package wire

import (
	"bytes"
	"io"
	"testing"

	"rpingmesh/internal/proto"
)

// FuzzReadFrame hardens the TCP framing against hostile bytes: arbitrary
// input must never panic, never allocate beyond the frame cap, and valid
// frames must round trip.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	_ = writeFrame(&good, &request{Op: opPinglists, Host: "h"})
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		err := readFrame(bytes.NewReader(data), &req)
		if err != nil {
			return
		}
		// Anything accepted must re-frame and re-read identically.
		var buf bytes.Buffer
		if err := writeFrame(&buf, &req); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		var again request
		if err := readFrame(&buf, &again); err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if again.Op != req.Op || again.Host != req.Host {
			t.Fatalf("frame roundtrip mismatch: %+v vs %+v", again, req)
		}
	})
}

// FuzzServerBody drives the body dispatch every server connection runs
// (handleBody) with hostile bytes, seeded with flat upload bodies. It
// must never panic; a flat body is accepted only if it reaches the sink
// and re-encodes to exactly the received bytes (so nothing trailing was
// ignored); a JSON body never reaches the sink.
func FuzzServerBody(f *testing.F) {
	for _, ub := range []proto.UploadBatch{multiRouteBatch(6, 5), multiRouteBatch(1, 1), {Host: "h", Sent: 1}} {
		body, err := proto.RecordsFromBatch(ub).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(append(bytes.Clone(body), 0))   // trailing byte
		f.Add(body[:len(body)/2])             // truncated
		f.Add(append([]byte{2}, body[1:]...)) // unknown version
	}
	f.Add([]byte(`{"op":"pinglists","host":"h"}`))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, body []byte) {
		sink := &recSink{}
		s := &Server{sink: sink}
		_, err := s.handleBody(body)
		if len(body) > 0 && body[0] == '{' {
			if sink.count() != 0 {
				t.Fatal("JSON body reached the upload sink")
			}
			return
		}
		if err != nil {
			if sink.count() != 0 {
				t.Fatal("rejected body reached the upload sink")
			}
			return
		}
		if len(sink.batches) != 1 || sink.boxed != 0 {
			t.Fatalf("accepted flat body delivered %d flat, %d boxed batches", len(sink.batches), sink.boxed)
		}
		enc, err := sink.batches[0].AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("accepted body re-encodes differently (%d vs %d bytes)", len(enc), len(body))
		}
	})
}

// Truncated frames fail cleanly with an io error, not a hang or panic.
func TestReadFrameTruncation(t *testing.T) {
	var good bytes.Buffer
	if err := writeFrame(&good, &request{Op: opRegister}); err != nil {
		t.Fatal(err)
	}
	full := good.Bytes()
	for cut := 0; cut < len(full); cut++ {
		var req request
		err := readFrame(bytes.NewReader(full[:cut]), &req)
		if err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", cut, len(full))
		}
		if cut >= 4 && err != io.ErrUnexpectedEOF && err != io.EOF {
			// Body truncation must surface as unexpected EOF.
			t.Fatalf("cut=%d: err = %v", cut, err)
		}
	}
}
