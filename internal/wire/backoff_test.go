package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestBackoffDelaySchedule: capped exponential doubling with
// deterministic jitter in [d/2, d].
func TestBackoffDelaySchedule(t *testing.T) {
	base := BackoffBase
	for n := 1; n <= 12; n++ {
		want := base
		for i := 1; i < n && want < BackoffMax; i++ {
			want *= 2
		}
		if want > BackoffMax {
			want = BackoffMax
		}
		got := backoffDelay("10.0.0.1:9000", n)
		if got < want/2 || got > want {
			t.Fatalf("backoffDelay(n=%d) = %v, want in [%v, %v]", n, got, want/2, want)
		}
		// Deterministic: same inputs, same delay.
		if again := backoffDelay("10.0.0.1:9000", n); again != got {
			t.Fatalf("backoffDelay(n=%d) not deterministic: %v vs %v", n, got, again)
		}
	}
	// The cap holds far out.
	if d := backoffDelay("10.0.0.1:9000", 40); d > BackoffMax {
		t.Fatalf("backoffDelay(40) = %v exceeds cap %v", d, BackoffMax)
	}
	// Different clients (addresses) get different jitter so a severed
	// fleet does not redial in lockstep.
	same := 0
	for n := 1; n <= 8; n++ {
		if backoffDelay("10.0.0.1:9000", n) == backoffDelay("10.0.0.2:9000", n) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("jitter identical across addresses for every failure count")
	}
}

// TestSeveredClientNoHotSpin: with the server gone, a client hammered
// with requests must not hammer the dialer — requests inside the backoff
// window fail fast, and dial attempts follow the backoff schedule.
func TestSeveredClientNoHotSpin(t *testing.T) {
	ctrl, tp := testBackend(t)
	srv, err := Listen("127.0.0.1:0", ctrl, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}

	// Kill the server for good and install a fake clock plus a counting
	// dialer so the test controls time instead of sleeping through it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	dials := 0
	cli.mu.Lock()
	cli.now = func() time.Time { return now }
	realDial := cli.dialFn
	cli.dialFn = func(a string) (net.Conn, error) {
		dials++
		return realDial(a)
	}
	cli.mu.Unlock()

	// 200 requests at one instant: the first discovers the dead
	// connection and dials once; the rest fail fast inside the window.
	const calls = 200
	for i := 0; i < calls; i++ {
		cli.Pinglists(tp.AllHosts()[0])
	}
	if cli.Err() == nil {
		t.Fatal("client reports no error with the server down")
	}
	if dials != 1 {
		t.Fatalf("%d requests at one instant caused %d dials, want 1", calls, dials)
	}

	// Walk the clock through several backoff windows: exactly one dial
	// per expiry, and the wait doubles (within jitter) each time.
	prevWait := time.Duration(0)
	for round := 2; round <= 5; round++ {
		cli.mu.Lock()
		wait := cli.nextDialAt.Sub(now)
		cli.mu.Unlock()
		if wait <= 0 || wait > BackoffMax {
			t.Fatalf("round %d: backoff wait %v out of range", round, wait)
		}
		if wait < prevWait {
			t.Fatalf("round %d: backoff shrank: %v after %v", round, wait, prevWait)
		}
		prevWait = wait
		now = now.Add(wait) // window expires exactly now
		before := dials
		for i := 0; i < 50; i++ {
			cli.Pinglists(tp.AllHosts()[0])
		}
		if got := dials - before; got != 1 {
			t.Fatalf("round %d: 50 requests after expiry caused %d dials, want 1", round, got)
		}
	}

	// Bring a server back on a fresh address and point the dialer at it:
	// once the window expires, the client reconnects and resets backoff.
	srv2, err := Listen("127.0.0.1:0", ctrl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli.mu.Lock()
	cli.dialFn = func(string) (net.Conn, error) {
		dials++
		return net.Dial("tcp", srv2.Addr())
	}
	wait := cli.nextDialAt.Sub(now)
	cli.mu.Unlock()
	now = now.Add(wait)
	if got := cli.Pinglists(tp.AllHosts()[0]); len(got) == 0 {
		t.Fatal("no pinglists after server came back")
	}
	if err := cli.Err(); err != nil {
		t.Fatalf("client did not recover: %v", err)
	}
	cli.mu.Lock()
	fails := cli.dialFails
	cli.mu.Unlock()
	if fails != 0 {
		t.Fatalf("dialFails = %d after successful redial, want 0", fails)
	}
}

// TestBackoffOnlyPunishesFailedDials: a sever followed by an immediate
// successful redial (server still up) must pay no backoff — the next
// request reconnects on the spot.
func TestBackoffOnlyPunishesFailedDials(t *testing.T) {
	ctrl, tp := testBackend(t)
	srv, cli := startServer(t, ctrl, nil)
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}

	// Freeze the clock: if any code path consulted the backoff window
	// after a successful redial, a frozen clock would expose it.
	now := time.Unix(2000, 0)
	cli.mu.Lock()
	cli.now = func() time.Time { return now }
	cli.mu.Unlock()

	for i := 0; i < 5; i++ {
		if n := srv.DisconnectAll(); n == 0 {
			t.Fatalf("sever %d: no live session", i)
		}
		if got := cli.Pinglists(tp.AllHosts()[0]); len(got) == 0 {
			t.Fatalf("sever %d: request after sever failed", i)
		}
		cli.mu.Lock()
		fails := cli.dialFails
		cli.mu.Unlock()
		if fails != 0 {
			t.Fatalf("sever %d: successful redial left dialFails = %d", i, fails)
		}
	}
}

// TestRedialErrorSurfaced: a round trip blocked by the backoff window
// returns the dial error instead of hanging or spinning.
func TestRedialErrorSurfaced(t *testing.T) {
	ctrl, tp := testBackend(t)
	srv, err := Listen("127.0.0.1:0", ctrl, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	now := time.Unix(3000, 0)
	cli.mu.Lock()
	cli.now = func() time.Time { return now }
	boom := errors.New("synthetic dial failure")
	cli.dialFn = func(string) (net.Conn, error) { return nil, boom }
	cli.mu.Unlock()

	if _, err := cli.roundTrip(jsonBody(&request{Op: opPinglists, Host: tp.AllHosts()[0]})); !errors.Is(err, boom) {
		t.Fatalf("first blocked round trip returned %v, want the dial error", err)
	}
	// Inside the window the last error is still surfaced, not swallowed.
	if _, err := cli.roundTrip(jsonBody(&request{Op: opPinglists, Host: tp.AllHosts()[0]})); !errors.Is(err, boom) {
		t.Fatalf("in-window round trip returned %v, want the dial error", err)
	}
}
