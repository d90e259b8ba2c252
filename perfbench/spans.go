package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call into the runtime, recorded by the benchmark's own
// code around the call. Spans of one serve request share its Req id and
// have that request's root span as parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: no parent
	Req    int64  `json:"req"`    // serve request id, -1 for other spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // benchmark clock
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add appends a span and returns its id (ids start at 1).
func (l *spanLog) add(parent, req int64, name string, start, end int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
