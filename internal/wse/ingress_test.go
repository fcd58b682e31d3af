package wse

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// buildIngressMesh wires a rows×cols mesh of rowEcho PEs and n span-tagged
// host messages per row head; row r's message b arrives at cycle
// 5b + 25r, so every row's first messages tie with earlier rows' later
// ones. With streamed set, each row's messages are one host stream —
// except row 1's, which stay eager Inject calls, so streams and single
// injections interleave their ordering seqs.
func buildIngressMesh(t *testing.T, rows, cols, n, workers int, streamed bool) (*Mesh, *SpanLog) {
	t.Helper()
	m, err := NewMesh(Config{Rows: rows, Cols: cols, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	spans := m.AttachSpans()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.SetProgram(r, c, &rowEcho{echoProgram{cost: 50}})
		}
	}
	for r := 0; r < rows; r++ {
		msg := func(b int) (Message, int64) {
			return Message{Color: 1, Payload: fmt.Sprintf("r%db%d", r, b), Wavelets: 4,
				Span: int64(r*n + b + 1)}, int64(5*b + 25*r)
		}
		if streamed && r != 1 {
			m.InjectStream(r, 0, n, msg)
			continue
		}
		for b := 0; b < n; b++ {
			mg, at := msg(b)
			m.Inject(r, 0, mg, at)
		}
	}
	return m, spans
}

// TestInjectStreamMatchesInject: host streams schedule exactly as the
// eager Inject calls they replace — the same run and the same span log,
// whose inject records follow the host messages' pop order — on the
// sequential and the sharded engine.
func TestInjectStreamMatchesInject(t *testing.T) {
	m, refSpans := buildIngressMesh(t, 4, 5, 16, 1, false)
	ref := snapshot(t, m)
	for _, workers := range []int{1, 3} {
		m, spans := buildIngressMesh(t, 4, 5, 16, workers, true)
		if got := len(m.pending); got != 3+16 {
			t.Fatalf("workers=%d: %d events pending before Run, want one per stream plus row 1's 16", workers, got)
		}
		if got := snapshot(t, m); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: streamed run diverges from eager injection", workers)
		}
		if !reflect.DeepEqual(spans.Events(), refSpans.Events()) {
			t.Fatalf("workers=%d: streamed span log diverges from eager injection", workers)
		}
	}
}

func TestInjectStreamBackwardsPanics(t *testing.T) {
	m, err := NewMesh(Config{Rows: 1, Cols: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.SetProgram(0, 0, &echoProgram{})
	m.InjectStream(0, 0, 2, func(k int) (Message, int64) {
		return Message{Color: 0, Payload: k, Wavelets: 1}, int64(10 - k)
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "before message 0") {
			t.Fatalf("recovered %v, want a panic naming the out-of-order message", r)
		}
	}()
	_, _ = m.Run()
}
