package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"pdq"
	"pdq/pdqhttp"
)

// http: a closed loop of nproc keep-alive connections to an in-process
// pdqhttp.Server on a loopback listener. Each connection POSTs its next
// JSON message after the previous reply. The queue is bounded, so
// Admission is on the path, but at this load it never sheds. The
// registered handler does no work of its own.
const (
	httpKeys  = 256
	httpCap   = 4096
	httpRing  = 1 << 15
	httpWarm  = 2000 // warm-up requests, all connections together
	httpBlock = 8    // completions per throughput block: ~0.5 ms at the seed's rate
	httpQueue = "bench"
	httpPath  = "/v1/queues/" + httpQueue + "/messages"
	idHeader  = "X-Bench-Id" // traced runs: message id and client span
)

var httpMix = mix{keys: httpKeys, bands: true}

type httpw struct {
	*bench
	ord    *ordinals
	ring   *recRing
	nextID atomic.Uint64
	procs  int
	gens   []*gen // one per connection, so inputs do not depend on timing

	mux     *pdq.Mux
	q       *pdq.Queue
	srv     *pdqhttp.Server
	hs      *http.Server
	served  chan error
	pool    *pdq.MuxPool
	own     *workerSet
	clients []*client
	st0     pdq.Stats
	adm0    pdqhttp.AdmissionStats

	accepted atomic.Int64 // 202s in the current phase
}

func runHTTP(o opts) (*report, error) {
	procs := runtime.NumCPU()
	h := &httpw{
		bench: newBench(o, httpKeys, procs, 0),
		ord:   newOrdinals(httpKeys, procs),
		ring:  newRecRing(httpRing),
		procs: procs,
	}
	h.rttAtClient = true
	h.block = httpBlock
	for i := 0; i < procs; i++ {
		h.gens = append(h.gens, newGen(o.seed*uint64(procs)+uint64(i), httpMix))
	}
	return runWorkload(h.bench, h, map[string]any{"connections": procs})
}

func (h *httpw) startTrace() { h.st0, h.adm0 = h.q.Stats(), h.srv.Admission().Stats() }

func (h *httpw) layers(rep *report, p, untraced phase) {
	h.perLayer(rep, p, untraced, pdqDelta(h.st0, h.q.Stats()), h.procs, h.procs)
	adm := h.srv.Admission().Stats()
	var admitted, shed uint64
	for b := range adm.Admitted {
		admitted += adm.Admitted[b] - h.adm0.Admitted[b]
		shed += adm.Shed[b] - h.adm0.Shed[b]
	}
	rep.set("pdqhttp.shed_frac", ratio(float64(shed), float64(admitted+shed)))
	rep.detail["pdqhttp.shed_frac.base"] = admitted + shed
	for _, x := range []struct {
		name string
		s    *series
	}{{"pdqhttp.serve_us", h.s.serve}, {"pdqhttp.ingest_wait_us", h.s.ingest}} {
		q := x.s.summarize()
		rep.count(x.name, q)
		rep.set(x.name+"_p50", q.p50/1e3)
		rep.set(x.name+"_p99", q.p99/1e3)
	}
	nq := h.s.net.summarize()
	rep.count("pdqhttp.net_us", nq)
	rep.set("pdqhttp.net_us_p50", nq.p50/1e3)
}

// handler is the registered wire handler: it finds the message's record
// by the id the wire carried and runs the common handler body.
func (h *httpw) handler(data json.RawMessage) {
	r := h.recOf(data)
	if r == nil {
		h.chk.fail("handler got unknown message %s", data)
		return
	}
	h.handle(r)
	if r.phase == phaseTraced {
		h.s.ingest.add(r.start - r.serveAt)
	}
}

// recOf resolves a wire payload (the message id) to its record; nil when
// the record holds another message.
func (h *httpw) recOf(d any) *rec {
	var id uint64
	switch v := d.(type) {
	case json.RawMessage:
		id = parseID(v)
	case []byte:
		id = parseID(v)
	}
	r := &h.ring.recs[id%uint64(len(h.ring.recs))]
	if id == 0 || r.pub.Load() != id {
		return nil
	}
	return r
}

// parseID reads a decimal id, ignoring anything after its digits.
func parseID(b []byte) uint64 {
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func (h *httpw) build() error {
	h.mux = pdq.NewMux()
	q, err := h.mux.Queue(httpQueue, pdq.WithCapacity(httpCap), pdq.WithDeadLetter(func(m pdq.Message, err error) {
		r := h.recOf(m.Data)
		if r == nil || r.phase != phaseWarm {
			h.failOp("message dead-lettered: %v", err)
		}
		if r != nil {
			r.state.Store(recDead)
		}
	}))
	if err != nil {
		return err
	}
	h.q = q
	reg := pdqhttp.NewRegistry()
	reg.Register("bench", h.handler)
	h.srv = pdqhttp.NewServer(h.mux, reg)
	if h.o.trace {
		h.own = startWorkers(h.procs, func(ctx context.Context) {
			h.entryWorker(ctx, h.mux.DequeueContext, h.recOf)
		})
	} else {
		h.pool = pdq.ServeMux(context.Background(), h.mux, h.procs)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.hs = &http.Server{Handler: http.HandlerFunc(h.serve)}
	h.served = make(chan error, 1)
	go func() { h.served <- h.hs.Serve(ln) }()
	h.clients = h.clients[:0]
	for i := 0; i < h.procs; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		h.clients = append(h.clients, &client{conn: c, br: bufio.NewReader(c), stream: i})
	}
	_, err = h.drive(phaseWarm, 0, httpWarm/h.procs)
	return err
}

func (h *httpw) teardown() {
	for _, c := range h.clients {
		c.conn.Close()
	}
	h.hs.Close()
	<-h.served
	if h.pool != nil {
		h.pool.Stop()
		h.pool.Wait()
		h.pool = nil
	}
	if h.own != nil {
		h.own.stop()
		h.own = nil
	}
	h.mux.Close()
}

// serve wraps Server.ServeHTTP; traced runs time it.
func (h *httpw) serve(w http.ResponseWriter, req *http.Request) {
	if !h.tracing.Load() {
		h.srv.ServeHTTP(w, req)
		return
	}
	st := now()
	id, parent := parseIDHeader(req.Header.Get(idHeader))
	r := &h.ring.recs[id%uint64(len(h.ring.recs))]
	sid := h.log.open()
	if id != 0 {
		r.serveAt = st
	}
	h.srv.ServeHTTP(w, req)
	en := now()
	h.s.serve.add(en - st)
	if id != 0 {
		r.serveNs.Store(en - st)
	}
	h.log.close(sid, spanServe, id, parent, st, en)
}

func parseIDHeader(v string) (id uint64, span uint32) {
	a, b, _ := bytes.Cut([]byte(v), []byte{'/'})
	return parseID(a), uint32(parseID(b))
}

func (h *httpw) measure(ph uint8, seconds float64) (phase, error) {
	h.resetPhase()
	m := startMeter(h.bench, true)
	genCPU, err := h.drive(ph, int64(seconds*1e9), 0)
	u := m.stop()
	if err != nil {
		return phase{}, err
	}
	msgs := h.completed.Load()
	return phase{msgs: msgs, tput: h.blockTput(u, msgs), u: u, genCPU: genCPU}, nil
}

// drive runs every connection's closed loop for dur nanoseconds (or for
// count requests each, when count > 0), then waits until every accepted
// message has run. It returns the client threads' CPU time.
func (h *httpw) drive(ph uint8, dur int64, count int) (int64, error) {
	h.accepted.Store(0)
	done0 := h.handled.Load()
	start := now()
	var wg sync.WaitGroup
	var cpu atomic.Int64
	errs := make([]error, len(h.clients))
	for i, c := range h.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			lockGenerator()
			defer runtime.UnlockOSThread()
			cpu0 := cpuNanos(rusageThread)
			errs[i] = h.loop(c, h.gens[i], ph, start+dur, count)
			cpu.Add(cpuNanos(rusageThread) - cpu0)
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	deadline := now() + int64(drainWait)
	for {
		done := h.handled.Load() - done0
		if done >= h.accepted.Load() {
			h.ring.settleAll(h.chk)
			return cpu.Load(), nil
		}
		if now() > deadline {
			return 0, fmt.Errorf("%d accepted messages never ran", h.accepted.Load()-done)
		}
		runtime.Gosched()
	}
}

// loop is one connection's closed loop.
func (h *httpw) loop(c *client, g *gen, ph uint8, until int64, count int) error {
	tr := ph == phaseTraced
	prev := now()
	for n := 0; count > 0 && n < count || count == 0 && now() < until; n++ {
		id := h.nextID.Add(1)
		r, err := h.ring.take(id, h.chk)
		if err != nil {
			return err
		}
		r.reset(id, c.stream, g.next(), ph)
		h.ord.assign(r)
		var sid uint32
		if tr {
			sid = h.log.open()
		}
		t := now()
		r.due = t
		r.pub.Store(id)
		status, err := c.post(r, tr, sid)
		ret := now()
		if err != nil {
			return err
		}
		if ph != phaseWarm {
			h.attempted.Add(1)
			h.s.late.add(t - prev)
			h.sendNs.Add(ret - t)
			h.s.rtt.add(ret - t)
		}
		if tr {
			h.s.net.add(ret - t - r.serveNs.Load())
			h.log.close(sid, spanSend, id, 0, t, ret)
		}
		prev = ret
		if status != http.StatusAccepted {
			if ph != phaseWarm {
				h.failOp("message %d: HTTP %d", id, status)
			}
			r.runs.Store(1)
			r.state.Store(recDone)
			continue
		}
		h.accepted.Add(1)
	}
	return nil
}

// client is a minimal HTTP/1.1 keep-alive client on one connection. It
// writes each request with one write and reads replies that carry a
// Content-Length, so the load generator costs little next to the server.
type client struct {
	conn   net.Conn
	br     *bufio.Reader
	buf    []byte
	stream int
}

// post sends r as one wire message and returns the reply's status.
func (c *client) post(r *rec, traced bool, span uint32) (int, error) {
	body := len(c.buf)
	b := c.buf[:0]
	b = append(b, `{"handler":"bench","data":`...)
	b = strconv.AppendUint(b, r.id, 10)
	b = append(b, `,"keys":[`...)
	for i, k := range r.keySlice() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(k), 10)
	}
	b = append(b, `],"priority":`...)
	b = strconv.AppendInt(b, int64(r.spec.band), 10)
	b = append(b, '}')
	body = len(b)
	b = append(b, "POST "+httpPath+" HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(body), 10)
	if traced {
		b = append(b, "\r\n"+idHeader+": "...)
		b = strconv.AppendUint(b, r.id, 10)
		b = append(b, '/')
		b = strconv.AppendUint(b, uint64(span), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, b[:body]...)
	c.buf = b
	if _, err := c.conn.Write(b[body:]); err != nil {
		return 0, err
	}
	return c.readReply()
}

var errReply = errors.New("malformed HTTP reply")

func (c *client) readReply() (int, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("%w: status line %q", errReply, line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("%w: status line %q", errReply, line)
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte{':'})
		if ok && bytes.EqualFold(name, []byte("Content-Length")) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(val)))
			if err != nil {
				return 0, fmt.Errorf("%w: %q", errReply, line)
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("%w: no Content-Length", errReply)
	}
	if _, err := c.br.Discard(length); err != nil {
		return 0, err
	}
	return status, nil
}
