package ckpt_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"qithread"
	"qithread/internal/ckpt"
	"qithread/internal/core"
	"qithread/internal/logio"
)

// Checkpoint loader robustness: every damaged or inconsistent checkpoint file
// must be rejected by qithread.LoadCheckpoint with an error — never a panic,
// never a silently loaded record that a resume would then trust.

const header = "qithread-checkpoint v1b\n"

// sampleCheckpoint records a small two-domain execution (a mutex handoff
// between threads, an idle cross-domain pipe) and serializes a checkpoint
// taken at its end. The application payload is large enough that the record
// frame is stored DEFLATE-compressed.
func sampleCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true})
	peer := rt.NewDomain("peer")
	var cp *qithread.Checkpoint
	var err error
	rt.Run(func(main *qithread.Thread) {
		rt.NewXPipe("idle", rt.Domain(0), peer, 4)
		m := rt.NewMutex(main, "m")
		var workers []*qithread.Thread
		for i := 0; i < 3; i++ {
			workers = append(workers, main.Create(fmt.Sprintf("w%d", i), func(t *qithread.Thread) {
				m.Lock(t)
				t.Work(10)
				m.Unlock(t)
			}))
		}
		for _, w := range workers {
			main.Join(w)
		}
		cp, err = rt.Checkpoint(main, func() []byte {
			return []byte(strings.Repeat("progress ", 200))
		})
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := qithread.SaveCheckpoint(&buf, cp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// load calls LoadCheckpoint, turning a panic into an error return so the
// callers can report it as a failure of its own.
func load(data []byte) (cp *qithread.Checkpoint, err error, panicked any) {
	defer func() { panicked = recover() }()
	cp, err = qithread.LoadCheckpoint(bytes.NewReader(data))
	return cp, err, nil
}

func mustReject(t *testing.T, what string, data []byte) {
	t.Helper()
	cp, err, p := load(data)
	switch {
	case p != nil:
		t.Fatalf("%s: LoadCheckpoint panicked: %v", what, p)
	case err == nil:
		t.Fatalf("%s: LoadCheckpoint accepted the input (epoch %d)", what, cp.Epoch())
	}
}

// frame wraps payloads in the checkpoint container: header, one frame per
// payload, terminator.
func frame(tb testing.TB, payloads ...[]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	buf.WriteString(header)
	fw := logio.NewFrameWriter(&buf)
	for _, p := range payloads {
		if err := fw.WriteFrame(p, true); err != nil {
			tb.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recordPayload extracts the (decompressed) record frame of a checkpoint.
func recordPayload(tb testing.TB, data []byte) []byte {
	tb.Helper()
	fr := logio.NewFrameReader(bytes.NewReader(data[len(header):]))
	p, err := fr.Next()
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Clone(p)
}

func TestLoadCheckpointRoundTrip(t *testing.T) {
	data := sampleCheckpoint(t)
	cp, err, p := load(data)
	if p != nil || err != nil {
		t.Fatalf("sample checkpoint does not load: err=%v panic=%v", err, p)
	}
	if want := strings.Repeat("progress ", 200); string(cp.App()) != want {
		t.Fatalf("app payload changed across save/load: %q", cp.App())
	}
	var again bytes.Buffer
	if err := qithread.SaveCheckpoint(&again, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("re-saved checkpoint differs from the original (%d vs %d bytes)", again.Len(), len(data))
	}
}

func TestLoadCheckpointTruncated(t *testing.T) {
	data := sampleCheckpoint(t)
	for n := 0; n < len(data); n++ {
		mustReject(t, fmt.Sprintf("truncated to %d of %d bytes", n, len(data)), data[:n])
	}
}

func TestLoadCheckpointFlippedByte(t *testing.T) {
	data := sampleCheckpoint(t)
	for i := len(header); i < len(data); i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0xff
		mustReject(t, fmt.Sprintf("byte %d of %d flipped", i, len(data)), bad)
	}
}

func TestLoadCheckpointBadHeader(t *testing.T) {
	data := sampleCheckpoint(t)
	body := data[len(header):]
	for _, h := range []string{
		"",
		"\n",
		"qithread-checkpoint v1\n",
		"qithread-checkpoint v2b\n",
		"qithread-schedule v3b\n",
		"QITHREAD-CHECKPOINT V1B\n",
	} {
		mustReject(t, fmt.Sprintf("header %q", h), append([]byte(h), body...))
	}
	mustReject(t, "header only", []byte(header))
}

func TestLoadCheckpointTrailingFrame(t *testing.T) {
	rec := recordPayload(t, sampleCheckpoint(t))
	if _, err, p := load(frame(t, rec)); err != nil || p != nil {
		t.Fatalf("re-framed record does not load: err=%v panic=%v", err, p)
	}
	mustReject(t, "record frame repeated", frame(t, rec, rec))
	mustReject(t, "junk frame after the record", frame(t, rec, []byte("junk")))
	mustReject(t, "garbage record frame", frame(t, []byte("not a gob record")))
}

func TestLoadCheckpointXseqMismatch(t *testing.T) {
	rec, err := ckpt.Load(bytes.NewReader(sampleCheckpoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rec  ckpt.Record
	}{
		{"extra xseq", ckpt.Record{Domains: rec.Domains, Xseqs: append(rec.Xseqs, 7), App: rec.App}},
		{"missing xseq", ckpt.Record{Domains: rec.Domains, Xseqs: nil, App: rec.App}},
		{"two domains, one xseq", ckpt.Record{Domains: make([]core.SchedState, 2), Xseqs: []int64{0}}},
	} {
		var buf bytes.Buffer
		if err := ckpt.Save(&buf, &tc.rec); err != nil {
			t.Fatal(err)
		}
		mustReject(t, tc.name, buf.Bytes())
	}
}

// FuzzLoadCheckpoint feeds LoadCheckpoint arbitrary files, and the same bytes
// re-framed as the record payload of a well-formed container — random
// mutations rarely survive the frame checksum, so the second form is what
// reaches the record decoder. Neither may panic; a checkpoint that loads must
// survive a save/load round trip unchanged.
func FuzzLoadCheckpoint(f *testing.F) {
	data := sampleCheckpoint(f)
	f.Add(data)
	f.Add(recordPayload(f, data))
	f.Add([]byte(header))
	f.Add([]byte(header + "\x04\x00ab\x01x\x00\x00\x00\x00\x00"))
	f.Add([]byte("qithread-schedule v3b\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) > 0 { // the container has no empty frames
			inputs = append(inputs, frame(t, data))
		}
		for _, in := range inputs {
			cp, err, p := load(in)
			if p != nil {
				t.Fatalf("LoadCheckpoint panicked: %v", p)
			}
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := qithread.SaveCheckpoint(&buf, cp); err != nil {
				t.Fatalf("loaded checkpoint does not save: %v", err)
			}
			again, err := qithread.LoadCheckpoint(&buf)
			if err != nil {
				t.Fatalf("re-saved checkpoint does not load: %v", err)
			}
			if again.Epoch() != cp.Epoch() || !bytes.Equal(again.App(), cp.App()) {
				t.Fatalf("save/load round trip changed epoch %d→%d or payload", cp.Epoch(), again.Epoch())
			}
		}
	})
}
