package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// fingerprint is an FNV-1a hash over trials in seed order: each trial's
// cell, seed, classification fields, EventsFired and SimTime, and for a
// chaos trial its ChaosStats (arrivals, every down interval, downtime,
// availability, MTTR percentiles, unrecoverability). Every simulated
// statistic the benchmark reports derives from these, so a change that
// only makes the program faster leaves it unchanged.
func fingerprint(recs []trialRecord) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for _, t := range recs {
		r := t.res
		h.Write([]byte(t.cell))
		put(uint64(r.Seed))
		put(uint64(r.Model))
		put(uint64(r.Target))
		put(uint64(r.Injected))
		flag(r.Activated)
		put(uint64(r.InjectedAt))
		flag(r.Failed)
		put(uint64(r.Class))
		flag(r.Recovered)
		put(uint64(r.RecoveryTime))
		flag(r.Correlated)
		put(uint64(r.AppRestarts))
		flag(r.Done)
		flag(r.SystemFailure)
		put(uint64(r.SysMode))
		put(uint64(r.Perceived))
		put(uint64(r.Actual))
		flag(r.AssertionFired)
		h.Write([]byte(r.Verdict))
		put(uint64(r.DaemonReinstalls))
		put(uint64(r.FTMMigrations))
		put(r.EventsFired)
		put(uint64(r.SimTime))
		if c := r.Chaos; c != nil {
			put(uint64(c.Horizon))
			put(uint64(c.Arrivals))
			put(uint64(c.Downs))
			put(uint64(len(c.Down)))
			for _, d := range c.Down {
				put(uint64(d))
			}
			put(uint64(c.Downtime))
			put(math.Float64bits(c.Availability))
			put(uint64(c.MTTRp50))
			put(uint64(c.MTTRp95))
			put(uint64(c.MTTRMax))
			flag(c.Unrecoverable)
			put(uint64(c.TimeToUnrecoverable))
		}
	}
	return h.Sum64()
}
