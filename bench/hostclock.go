package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on two vCPUs of a shared host that moves between
// phases lasting minutes: the same 25 ScoreMany calls took 195 ms for
// ten minutes, then 250 to 310 ms for the next fifteen, with the guest's
// steal counter rising alongside. Wall-clock times of identical code
// therefore spread wider between two runs than any regression bound
// could see through (20 s window medians over that half hour: quartile
// spread 14 % of the median, range 55 %).
//
// So end-to-end times are reported in reference milliseconds: the
// wall time of the operation, scaled by referenceCal over the time a
// calibration kernel took beside it. The kernel is the harness's own
// and calls nothing of the program under test, so a change to the
// program cannot move it. It is shaped like the program's work in the
// three ways the host's phases bite: it runs on calThreads threads at
// once (every workload computes on two), half of it is independent
// multiply-add chains (issue-bound, so it feels a busy sibling thread
// and stolen cycles), half of it streams a buffer larger than L2 (so it
// feels a busy memory system). Over the half hour above, window medians
// of work over kernel spread 4 % (range 18 %); a register-only spin loop
// tracked nothing (it stayed within 10 % while the work moved by 50 %).
//
// The hostClock takes the samples at moments when the program under
// test is idle (between generations, queries and rounds, around a set-up),
// and the samples are left out of every operation's own time. The
// unscaled values go to outcome.Wall and the kernel's statistics to the
// host.* metrics, so a reader sees both the steady number and what the
// host did.
//
// service_burst is never idle while clients burst on their own, so its
// pass runs in rounds with the daemon idle in between (service.go).
const (
	calThreads  = 2
	calILPIters = 400_000
	calBufWords = 4 << 20 // 16 MB of uint32 per thread, 4 x the L2 of the reference machine
	calChunk    = 1 << 20 // one sample streams 4 MB of it, the next sample the next 4 MB
	// referenceCal is what one sample takes on the reference machine (this
	// repository's build container in its fast phase), so a reference
	// millisecond is about a wall millisecond there.
	referenceCal = 1900 * time.Microsecond
	// speedPad widens an operation's interval when its speed is looked
	// up, so a short operation is scaled by several samples around it.
	speedPad = 250 * time.Millisecond
	minNear  = 8
)

var calSink [calThreads]uint64

// calKernel is one thread's share of a calibration sample.
//
//go:noinline
func calKernel(chunk []uint32) uint64 {
	a, b, c, d, e, f := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6)
	for i := 0; i < calILPIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1
		c = c*2862933555777941757 + 3037000493
		d = d*2862933555777941757 + 7
		e = e ^ (e << 13) + uint64(i)
		f = f ^ (f >> 7) + a
	}
	var sum uint64
	for _, v := range chunk {
		sum += uint64(v)
	}
	return a + b + c + d + e + f + sum
}

type speedSample struct {
	at  time.Time
	cal time.Duration
}

// hostClock records how fast the host ran over the life of a pass. A
// nil *hostClock takes no samples and scales nothing.
type hostClock struct {
	raw  [calThreads][]byte   // the mappings
	bufs [calThreads][]uint32 // the same memory, as the kernel reads it
	next int                  // word offset of the next sample's chunk

	mu      sync.Mutex
	samples []speedSample // in time order
}

// newHostClock maps the kernel's buffers outside the Go heap, so that
// they do not move the garbage collector's pacing of the program under
// test, and touches every page.
func newHostClock() (*hostClock, error) {
	h := &hostClock{}
	for w := range h.bufs {
		raw, err := syscall.Mmap(-1, 0, 4*calBufWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, err
		}
		h.raw[w] = raw
		h.bufs[w] = unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), calBufWords)
		for i := range h.bufs[w] {
			h.bufs[w][i] = uint32(i) * 2654435761
		}
	}
	return h, nil
}

// close unmaps the buffers; the clock takes no samples afterwards.
func (h *hostClock) close() {
	for w, raw := range h.raw {
		if raw != nil {
			_ = syscall.Munmap(raw)
		}
		h.raw[w], h.bufs[w] = nil, nil
	}
}

// once runs the kernel on every thread and returns how long that took.
func (h *hostClock) once() time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range h.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calSink[w] += calKernel(h.bufs[w][h.next : h.next+calChunk])
		}()
	}
	wg.Wait()
	h.next = (h.next + calChunk) % calBufWords
	return time.Since(t0)
}

// sample takes n calibration samples and records each, stamped when it
// ended. Call it only while the program under test is idle, and from
// one goroutine at a time.
func (h *hostClock) sample(n int) {
	if h == nil {
		return
	}
	for ; n > 0; n-- {
		cal := h.once()
		h.mu.Lock()
		h.samples = append(h.samples, speedSample{at: time.Now(), cal: cal})
		h.mu.Unlock()
	}
}

// settle runs the kernel once and records nothing. The first sample
// after a round of service_burst takes half as long again as the
// following ones (what the daemon and the kernel under it still do
// after the last reply), so that one is thrown away.
func (h *hostClock) settle() {
	if h != nil {
		h.once()
	}
}

// factor is what a wall time measured over [from, to] is multiplied by
// to give reference time: referenceCal over the median of the samples
// within speedPad of the interval, widened to the nearest samples on
// either side until there are minNear of them. 1 when there are no
// samples.
func (h *hostClock) factor(from, to time.Time) float64 {
	if h == nil {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 1
	}
	lo := sort.Search(len(h.samples), func(i int) bool { return !h.samples[i].at.Before(from.Add(-speedPad)) })
	hi := sort.Search(len(h.samples), func(i int) bool { return h.samples[i].at.After(to.Add(speedPad)) })
	for hi-lo < minNear && (lo > 0 || hi < len(h.samples)) {
		lo, hi = max(lo-1, 0), min(hi+1, len(h.samples))
	}
	near := make([]float64, 0, hi-lo)
	for _, s := range h.samples[lo:hi] {
		near = append(near, float64(s.cal))
	}
	return float64(referenceCal) / median(near)
}

// calMS returns every sample taken so far, in milliseconds.
func (h *hostClock) calMS() []float64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.samples))
	for i, s := range h.samples {
		out[i] = ms(s.cal)
	}
	return out
}

// opTimes collects operation times in milliseconds: as the wall clock
// read them, and scaled to reference time.
type opTimes struct{ wall, ref []float64 }

func (t *opTimes) add(wallMS, factor float64) {
	t.wall = append(t.wall, wallMS)
	t.ref = append(t.ref, wallMS*factor)
}

// report sets the two latency metrics every workload shares.
func (t *opTimes) report(o *outcome, tail float64) {
	o.setScaled("op_ms_p50", median(t.ref), median(t.wall), len(t.ref))
	o.setScaled("op_ms_tail", percentile(t.ref, tail), percentile(t.wall, tail), len(t.ref))
}
