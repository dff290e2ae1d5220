package statesync

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestBuildStateFramesUnknownComponentOrder pins the chunker's component
// emission order: canonical components first (json, tables, files), then
// any unknown components sorted by name. With map-order iteration the
// chunk boundaries would differ run to run.
func TestBuildStateFramesUnknownComponentOrder(t *testing.T) {
	st := newState(t, "order")
	for i := 0; i < 2; i++ {
		if err := st.JSON.PutScalar("root", "k"+string(rune('0'+i)), float64(i)); err != nil {
			t.Fatal(err)
		}
		st.JSON.Commit("")
	}
	chs := st.Delta(nil)[CompJSON]
	if len(chs) != 2 {
		t.Fatalf("seed delta has %d changes, want 2", len(chs))
	}
	// Map insertion order scrambled on purpose; ten runs to catch any
	// iteration-order dependence.
	for run := 0; run < 10; run++ {
		delta := Delta{
			"zeta":   chs,
			CompJSON: chs,
			"alpha":  chs,
		}
		frames, _ := buildStateFrames(delta, 2, false)
		if len(frames) != 3 {
			t.Fatalf("run %d: %d frames, want 3", run, len(frames))
		}
		want := []string{CompJSON, "alpha", "zeta"}
		for i, comp := range want {
			if got := len(frames[i].Delta[comp]); got != 2 {
				t.Fatalf("run %d: frame %d carries %d %q changes, want 2 (frame delta: %v)",
					run, i, got, comp, componentNames(frames[i].Delta))
			}
		}
	}
}

func componentNames(d Delta) []string {
	var out []string
	for c := range d {
		out = append(out, c)
	}
	return out
}

// budgetConn is a net.Conn accepting only budget bytes; once spent,
// writes fail with err (after a final partial write), modelling a
// connection that dies mid-batch.
type budgetConn struct {
	budget int
	err    error
}

func (c *budgetConn) Write(p []byte) (int, error) {
	if c.budget <= 0 {
		return 0, c.err
	}
	if len(p) <= c.budget {
		c.budget -= len(p)
		return len(p), nil
	}
	n := c.budget
	c.budget = 0
	return n, c.err
}

func (c *budgetConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *budgetConn) Close() error                     { return nil }
func (c *budgetConn) LocalAddr() net.Addr              { return nil }
func (c *budgetConn) RemoteAddr() net.Addr             { return nil }
func (c *budgetConn) SetDeadline(time.Time) error      { return nil }
func (c *budgetConn) SetReadDeadline(time.Time) error  { return nil }
func (c *budgetConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteFramesPartialWriteAccounting pins the frame-credit rule: the
// whole batch is credited before the write, and a batch whose write
// dies mid-way takes back all but the frames that fully reached the
// wire.
func TestWriteFramesPartialWriteAccounting(t *testing.T) {
	frames := []*frame{
		{Kind: frameState, From: "a"},
		{Kind: frameState, From: "b"},
		{Kind: frameState, From: "c"},
	}
	// Blob sizes via a throwaway encoder (no compression negotiated).
	sizer := &wireConn{}
	var sizes []int
	for _, f := range frames {
		eb, blob, _, err := sizer.encodeWireFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(blob))
		eb.Release()
	}
	total := sizes[0] + sizes[1] + sizes[2]

	// write returns the net credit and the first (pre-write) one.
	write := func(wc *wireConn) (sum, first [3]int, err error) {
		calls := 0
		err = wc.writeFrames(func(n, fr, comp int) {
			if calls == 0 {
				first = [3]int{n, fr, comp}
			}
			calls++
			sum[0] += n
			sum[1] += fr
			sum[2] += comp
		}, frames...)
		return sum, first, err
	}

	// Budget covers frame 0 plus part of frame 1.
	severed := errors.New("wire severed")
	got, first, err := write(&wireConn{c: &budgetConn{budget: sizes[0] + sizes[1]/2, err: severed}})
	if !errors.Is(err, severed) {
		t.Fatalf("err = %v, want severed", err)
	}
	if first != [3]int{total, len(frames), 0} {
		t.Fatalf("pre-write credit = %v, want the whole batch %v", first, [3]int{total, len(frames), 0})
	}
	if want := [3]int{sizes[0] + sizes[1]/2, 1, 0}; got != want {
		t.Fatalf("net credit = %v, want %v (frame 1 was cut mid-way, frame 2 never started)", got, want)
	}

	// Error before anything reached the wire: zero net credit.
	got, _, err = write(&wireConn{c: &budgetConn{budget: 0, err: severed}})
	if err == nil || got != [3]int{} {
		t.Fatalf("dead conn: credit %v err=%v, want zero/error", got, err)
	}

	// Healthy path: every frame credited, once.
	got, first, err = write(&wireConn{c: &budgetConn{budget: 1 << 20, err: severed}})
	if err != nil {
		t.Fatal(err)
	}
	if want := [3]int{total, len(frames), 0}; got != want || first != want {
		t.Fatalf("healthy conn: credit %v (first %v), want %v", got, first, want)
	}
}
