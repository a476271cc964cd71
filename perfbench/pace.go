package main

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"time"
)

// Host pace. The machine the bounds were set on is a shared virtual
// machine whose pace drifts by minutes: the same chaos-day trial took
// 0.57 s of CPU in one run and 0.94 s in another a few minutes later.
// A fixed calibration kernel, run between the batches, slowed down with
// it: over five minutes of 30 s windows the trial's CPU time ranged over
// ×1.40 and the ratio of trial to kernel time over ×1.06. So the timed
// loop runs the kernel before every batch, one copy per worker, and
// scales every host-time metric by the run's pace: the median kernel
// CPU time per copy ÷ paceNominal for CPU-time metrics, the median
// kernel wall time ÷ paceNominal for wall-clock ones. The kernel is the
// benchmark's own code on the standard library only, so a change to the
// program cannot move it.

// paceNominal is the calibration kernel's CPU time on the machine the
// bounds were set on (2-vCPU Xeon VM, Go 1.24.0). It only sets the scale
// of the paced figures: they read as the program's host times on a host
// of that pace.
const paceNominal = 25 * time.Millisecond

// calibrate runs the calibration kernel once on each of copies
// goroutines at the same time, between two collections so that neither
// the loop's garbage nor its own is left to the other. It returns the
// kernel's CPU time per copy and the wall time of the whole.
func calibrate(copies int) (cpu, wall time.Duration) {
	runtime.GC()
	w0, c0 := time.Now(), processCPU()
	var wg sync.WaitGroup
	sums := make([]float64, copies)
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = paceKernel()
		}()
	}
	wg.Wait()
	cpu, wall = (processCPU()-c0)/time.Duration(copies), time.Since(w0)
	kernelSink = sums[0]
	runtime.GC()
	return cpu, wall
}

// kernelSink keeps the kernel's result alive.
var kernelSink float64

// paceKernel is a fixed amount of the kinds of work the workloads do:
// goroutine hand-offs over channels, small allocations that become
// garbage, priority-queue operations, and floating-point transforms.
func paceKernel() float64 {
	// Hand-offs: a ping-pong between two goroutines.
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	sum := 0
	for i := 0; i < 10000; i++ {
		ping <- i
		sum += <-pong
	}
	close(ping)
	<-pong

	// Allocation: short linked lists of small nodes.
	type node struct {
		next *node
		v    [4]int64
	}
	var list *node
	for i := 0; i < 150000; i++ {
		if i%1000 == 0 {
			list = nil
		}
		list = &node{next: list, v: [4]int64{int64(i)}}
	}
	sum += int(list.v[0])

	// A priority queue fed by a linear congruential sequence.
	q := &int64Heap{}
	x := uint64(12345)
	for i := 0; i < 40000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap.Push(q, int64(x>>20))
		if i%3 == 2 {
			sum += int(heap.Pop(q).(int64) & 1)
		}
	}

	// A naive discrete Fourier transform.
	const n = 128
	var re, im float64
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			a := 2 * math.Pi * float64(k*t) / n
			s := math.Sin(float64(t) / 7)
			re += s * math.Cos(a)
			im -= s * math.Sin(a)
		}
	}
	return float64(sum) + math.Hypot(re, im)
}

type int64Heap []int64

func (h int64Heap) Len() int           { return len(h) }
func (h int64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h int64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *int64Heap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *int64Heap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
