package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution: the traced run records a runtime/pprof CPU profile
// and this file buckets its samples by package, with nothing but the
// standard library (a minimal decoder for the profile.proto wire format).

// cpuBuckets are the reported buckets, in output order.
var cpuBuckets = []string{"apps", "sim", "core", "sift", "inject", "runtime_sched", "runtime_mem", "other"}

// pkgBucket maps a reesift package path prefix to its bucket.
var pkgBucket = []struct{ prefix, bucket string }{
	{"reesift/internal/apps/", "apps"},
	{"reesift/internal/fft", "apps"},
	{"reesift/internal/mpi", "apps"},
	{"reesift/internal/sim", "sim"},
	{"reesift/internal/core", "core"},
	{"reesift/internal/sift", "sift"},
	{"reesift/internal/inject", "inject"},
	{"reesift/internal/chaos", "inject"},
	{"reesift/internal/campaign", "inject"},
	{"reesift/pkg/reesift", "inject"},
}

// Runtime functions that make up allocation and garbage collection, and
// goroutine scheduling (channel hand-off, park/ready, locks). A sample
// whose runtime frames match neither is charged to the nearest caller.
var (
	runtimeMem = []string{"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"memclr", "gcBgMarkWorker", "gcDrain", "gcMark", "gcStart", "gcAssist", "markroot", "scanobject",
		"scanblock", "scanstack", "greyobject", "findObject", "sweep", "mspan", "mcache", "mcentral",
		"mheap", "heapBits", "bulkBarrier", "wbBuf", "typePointers", "nextFree", "deductAssist",
		"stkbucket", "concatstring", "rawstring", "rawbyteslice", "slicebytetostring", "convT", "stringtoslice"}
	runtimeSched = []string{"chansend", "chanrecv", "selectgo", "gopark", "goready", "ready", "park_m",
		"schedule", "findRunnable", "runqget", "runqput", "runqgrab", "stealWork", "casgstatus", "mcall",
		"gogo", "gosched", "goexit", "newproc", "execute", "lock2", "unlock2", "lockWithRank", "futex",
		"notesleep", "notewakeup", "semacquire", "semrelease", "wakep", "startm", "stopm", "handoffp",
		"resetspinning", "checkTimers", "netpoll", "osyield", "usleep", "procyield", "goschedIfBusy",
		"acquirep", "releasep", "sysmon", "send", "recv", "chanparkcommit", "sellock", "selunlock"}
)

// bucketStack classifies one sample's stack (leaf first). The runtime
// frames at the leaf decide first: any allocation or GC frame among them
// makes the sample runtime_mem, else any scheduling frame makes it
// runtime_sched. Otherwise the sample belongs to the nearest reesift
// frame's package, so standard-library code such as math counts toward
// its caller (the FFT and the rover pipeline for the apps bucket).
func bucketStack(frames []string) string {
	i := 0
	for i < len(frames) && isRuntime(funcPackage(frames[i])) {
		i++
	}
	if matchAny(frames[:i], runtimeMem) {
		return "runtime_mem"
	}
	if matchAny(frames[:i], runtimeSched) {
		return "runtime_sched"
	}
	for _, fn := range frames[i:] {
		pkg := funcPackage(fn)
		for _, pb := range pkgBucket {
			if strings.HasPrefix(pkg, pb.prefix) {
				return pb.bucket
			}
		}
		if strings.HasPrefix(pkg, "reesift/") {
			return "other"
		}
	}
	return "other"
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// matchAny reports whether any frame name contains any of subs.
func matchAny(frames, subs []string) bool {
	for _, fn := range frames {
		for _, s := range subs {
			if strings.Contains(fn, s) {
				return true
			}
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "reesift/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuProfile accumulates CPU nanoseconds per bucket over one or more
// profiles.
type cpuProfile struct {
	nanos map[string]int64
	total int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{nanos: make(map[string]int64)} }

// add decodes one gzipped pprof CPU profile and folds its samples in.
func (c *cpuProfile) add(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if name := p.funcName[fid]; name != "" {
					frames = append(frames, name)
				}
			}
		}
		v := s.value
		c.nanos[bucketStack(frames)] += v
		c.total += v
	}
	return nil
}

// share is the fraction of sampled CPU time in a bucket.
func (c *cpuProfile) share(bucket string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.nanos[bucket]) / float64(c.total)
}

type pprofSample struct {
	locs  []uint64
	value int64 // CPU nanoseconds (the last sample value)
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inline frame first
	funcName map[uint64]string
}

// decodeProfile reads the subset of profile.proto the attribution
// needs: samples, locations, functions and the string table.
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]string)}
	var strs []string
	funcNameIdx := make(map[uint64]uint64)
	err := walkFields(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			var vals []int64
			err := walkFields(sub, func(f, w int, v uint64, bs []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, bs)
				case 2:
					for _, x := range appendVarints(nil, w, v, bs) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(sub, func(f, w int, v uint64, bs []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(bs, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := walkFields(sub, func(f, w int, v uint64, bs []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

// appendVarints handles a repeated scalar field in either packed
// (length-delimited) or unpacked (one varint per field) encoding.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errTruncated = errors.New("cpu profile: truncated protobuf")

// walkFields calls fn for every field of one protobuf message: varints
// arrive in v, length-delimited fields in sub.
func walkFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
