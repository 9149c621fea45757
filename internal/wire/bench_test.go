package wire

import (
	"testing"

	"rpingmesh/internal/proto"
)

// discardSink is a RecordSink that drops every batch.
type discardSink struct{}

func (discardSink) UploadRecords(*proto.RecordBatch) {}
func (discardSink) Upload(proto.UploadBatch)         {}

// BenchmarkWireUpload is one upload round trip over loopback TCP: a
// 256-record, 16-route batch converted and flat-encoded by the client,
// decoded by the server into a RecordSink, and acknowledged.
func BenchmarkWireUpload(b *testing.B) {
	srv, err := Listen("127.0.0.1:0", nil, discardSink{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	batch := multiRouteBatch(16, 16)
	cli.Upload(batch) // warm the client's and the connection's buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.Upload(batch)
	}
	b.StopTimer()
	if err := cli.Err(); err != nil {
		b.Fatal(err)
	}
}
