package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded by
// the benchmark around the call (the program itself is not
// instrumented). Trial ties the spans of one trial together; Parent is
// the index of the enclosing span, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trial  int    `json:"trial"`
}

// spanLog keeps every span of a traced run in memory. Spans are written
// out once, when the run ends (writeJSONL), so recording costs two clock
// reads and an append under a lock.
type spanLog struct {
	origin    time.Time
	mu        sync.Mutex
	spans     []span
	nextTrial int
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// newTrial returns the next trial id, in the order trials start.
func (l *spanLog) newTrial() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextTrial++
	return l.nextTrial
}

// begin opens a span and returns its index; end closes it.
func (l *spanLog) begin(name string, parent, trial int) int {
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: now, End: -1, Parent: parent, Trial: trial})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// times returns, per span name, the summed self time (each span's
// duration minus the part of its interval covered by its children) and
// the summed duration. Children of a parallel parent (a campaign cell's
// concurrent trials) may overlap, so coverage is the length of their
// union.
func (l *spanLog) times() (self, total map[string]time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make(map[string]time.Duration)
	total = make(map[string]time.Duration)
	for i, s := range l.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[i] {
			if cs := l.spans[c]; cs.End >= 0 {
				iv = append(iv, [2]int64{cs.Start, cs.End})
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - unionLength(iv))
		total[s.Name] += time.Duration(s.End - s.Start)
	}
	return self, total
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curStart, curEnd int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curStart, curEnd, open = x[0], x[1], true
		case x[0] > curEnd:
			total += curEnd - curStart
			curStart, curEnd = x[0], x[1]
		case x[1] > curEnd:
			curEnd = x[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	l.mu.Unlock()
	return f.Close()
}
