package cluster

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/hidden"
	"repro/internal/obs"
)

// The server half of the peer transport. A peer opens a connection by
// sending an ordinary HTTP request to GET /cluster/v2 with
// `Upgrade: qr2-peer/2` on the replica's one listen address; this
// handler hijacks the connection, answers 101 Switching Protocols,
// completes the hello / helloAck handshake, and then serves binary
// frames until the peer goes away. Any other answer — a 503 from a
// draining replica, a 404 from something that is not a QR2 replica —
// fails the peer's dial, and the peer indicts this replica.
//
// Ops are handled sequentially per connection: every handler is local
// memory work (a cache Peek, an admission, a snapshot marshal), so
// there is nothing to overlap, and responses pipeline behind each other
// on the wire. Concurrency comes from the connection pool, not from
// per-frame goroutines.
//
// Error discipline mirrors the codec's: a frame-layer violation (bad
// length prefix, truncated stream) kills the connection — framing is
// lost; a payload-level failure (unknown op, malformed predicate,
// unknown namespace) answers opErr for that request id and keeps
// serving, so one bad request — or a newer peer's unknown op — cannot
// sever a link carrying other callers' traffic.

// handleV2 upgrades one connection on the ordinary HTTP listener.
func (n *Node) handleV2(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != upgradeProto {
		http.Error(w, fmt.Sprintf("cluster: unsupported upgrade %q", r.Header.Get("Upgrade")), http.StatusBadRequest)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "cluster: connection cannot be hijacked", http.StatusInternalServerError)
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "cluster: hijack failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	n.trackV2Conn(conn)
	defer n.untrackV2Conn(conn)
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.transport.rpcTimeout))
	_, err = rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		upgradeProto + "\r\nConnection: Upgrade\r\n\r\n")
	if err == nil {
		err = rw.Flush()
	}
	if err != nil {
		return
	}
	// Handshake: the magic pins "this really is a QR2 peer", and the
	// version fields leave room for a later upgrade — today the ack
	// always says 2.
	f, err := readFrame(rw.Reader)
	if err != nil || f.op != opHello {
		return
	}
	hr := &wireReader{buf: f.payload}
	magic := hr.str()
	version := hr.uvarint()
	hr.str() // peer's self id; informational
	if hr.err != nil || magic != protoMagic || version < protoV2 {
		return
	}
	var ack wireWriter
	start := beginFrame(&ack, opHelloAck, 0, f.id)
	ack.uvarint(protoV2)
	ack.str(n.self)
	endFrame(&ack, start)
	if _, err := conn.Write(ack.buf); err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})
	n.serveV2(conn, rw.Reader)
}

// serveV2 is the frame loop of one established v2 connection. The loop
// owns two scratch buffers — one the request frames land in, one the
// responses are built in — so a warm connection serves without
// per-frame allocations on either side of the handler. Reuse is sound
// because every handler fully consumes its payload before returning
// (decoded values are copies, never payload subslices) and the response
// is written before the next read.
func (n *Node) serveV2(c net.Conn, br *bufio.Reader) {
	t := n.transport
	var rbuf, wbuf []byte
	for {
		var f frame
		var err error
		f, rbuf, err = readFrameReuse(br, rbuf)
		if err != nil {
			return // connection closed, or framing lost — either way, done
		}
		t.framesRecv.Add(1)
		var out []byte
		switch f.op {
		case opGet:
			out = n.v2ServeGet(f, wbuf[:0])
		case opBatchGet:
			out = n.v2ServeBatch(f, wbuf[:0])
		case opPut:
			out = n.v2ServePut(f)
		case opRing:
			out = n.v2ServeRing(f)
		case opObs:
			out = n.v2ServeObs(f)
		default:
			var w wireWriter
			appendErrFrame(&w, f.id, http.StatusBadRequest, fmt.Sprintf("unknown op %d", f.op))
			out = w.buf
		}
		_ = c.SetWriteDeadline(time.Now().Add(t.rpcTimeout))
		if _, err := c.Write(out); err != nil {
			return
		}
		if cap(out) > cap(wbuf) {
			wbuf = out
		}
		t.framesSent.Add(1)
	}
}

// v2Lookup serves one residency lookup entry (the body of opGet, or one
// batch entry): decode, adopt the caller's epoch (an adoption wipes
// before the Peek, so the caller sees a clean miss from the post-change
// cache), read the local epoch BEFORE the Peek — if a bump lands in
// between, the answer travels honestly tagged with the epoch it was
// valid under, never with an epoch newer than the residency it came
// from — and package the response. A wireError return maps to an opErr frame
// or a batch-entry error status.
func (n *Node) v2Lookup(payload []byte) (getResponse, int, *wireError) {
	n.peerGets.Add(1)
	rd := &wireReader{buf: payload}
	ns := rd.str()
	eseq := rd.uvarint()
	scope := decodeScope(rd)
	wantTrace := rd.bool()
	if rd.err != nil {
		return getResponse{}, 0, &wireError{code: http.StatusBadRequest, msg: rd.err.Error()}
	}
	cs, ok := n.source(ns)
	if !ok {
		return getResponse{}, 0, &wireError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown namespace %q", ns)}
	}
	pred := decodePredicate(rd, cs.Schema())
	if err := rd.finish(); err != nil {
		return getResponse{}, 0, &wireError{code: http.StatusBadRequest, msg: err.Error()}
	}
	n.observeScoped(ns, eseq, scope)
	seq, scopeOut := n.epochOf(ns)
	// The lookup is timed only when the caller wants the span — two
	// clock reads per entry are visible at wire speed.
	var began time.Time
	if wantTrace {
		began = time.Now()
	}
	// Shared peek: the tuples only flow into the response encoder below,
	// never escape this frame's handling, and are not mutated.
	res, found := cs.cache.PeekShared(pred)
	if found {
		n.peerGetHits.Add(1)
	}
	resp := getResponse{found: found, overflow: res.Overflow, eseq: seq, scope: scopeOut, tuples: res.Tuples}
	if wantTrace {
		// No per-request context exists on a persistent connection, so
		// the owner-side subtree is built directly: one pool_lookup span.
		resp.trace = &obs.Subtree{Replica: n.self, Spans: []obs.WireSpan{{
			G: uint8(obs.StagePoolLookup),
			O: uint8(hitMiss(found)),
			D: time.Since(began).Nanoseconds(),
		}}}
	}
	return resp, cs.Schema().Len(), nil
}

// v2ServeGet answers one opGet frame into scratch (which may be nil).
func (n *Node) v2ServeGet(f frame, scratch []byte) []byte {
	w := wireWriter{buf: scratch}
	w.grow(512)
	resp, width, werr := n.v2Lookup(f.payload)
	if werr != nil {
		appendErrFrame(&w, f.id, werr.code, werr.msg)
		return w.buf
	}
	start := beginFrame(&w, opGetResp, 0, f.id)
	appendGetResponse(&w, resp, width)
	endFrame(&w, start)
	return w.buf
}

// v2ServeBatch answers one opBatchGet frame into scratch (which may be
// nil): each entry is served independently and its answer (or error)
// travels back positionally, so one unknown namespace in a coalesced
// burst fails only its own caller.
func (n *Node) v2ServeBatch(f frame, scratch []byte) []byte {
	rd := &wireReader{buf: f.payload}
	cnt := rd.count("batch entries", 2)
	if rd.err == nil && cnt > maxBatchWire {
		rd.fail("cluster: batch of %d exceeds cap %d", cnt, maxBatchWire)
	}
	entries := make([][]byte, 0, cnt)
	for i := 0; i < cnt && rd.err == nil; i++ {
		entries = append(entries, rd.blob())
	}
	if err := rd.finish(); err != nil {
		var w wireWriter
		appendErrFrame(&w, f.id, http.StatusBadRequest, err.Error())
		return w.buf
	}
	w := wireWriter{buf: scratch}
	w.grow(32 + 512*len(entries))
	start := beginFrame(&w, opBatchResp, 0, f.id)
	w.uvarint(uint64(len(entries)))
	sub := wireWriter{buf: make([]byte, 0, 512)}
	for _, e := range entries {
		sub.buf = sub.buf[:0]
		resp, width, werr := n.v2Lookup(e)
		if werr != nil {
			w.u8(1)
			sub.uvarint(uint64(werr.code))
			sub.str(werr.msg)
		} else {
			w.u8(0)
			appendGetResponse(&sub, resp, width)
		}
		w.bytes(sub.buf)
	}
	endFrame(&w, start)
	return w.buf
}

// v2ServePut answers one opPut frame through the peer-admission core
// (admitFromPeer: stale rejection, adopt-then-admit, untagged bypass).
func (n *Node) v2ServePut(f frame) []byte {
	var w wireWriter
	rd := &wireReader{buf: f.payload}
	ns := rd.str()
	seq := rd.uvarint()
	scope := decodeScope(rd)
	wantTrace := rd.bool()
	overflow := rd.bool()
	if rd.err != nil {
		appendErrFrame(&w, f.id, http.StatusBadRequest, rd.err.Error())
		return w.buf
	}
	cs, ok := n.source(ns)
	if !ok {
		appendErrFrame(&w, f.id, http.StatusNotFound, fmt.Sprintf("unknown namespace %q", ns))
		return w.buf
	}
	pred := decodePredicate(rd, cs.Schema())
	tuples := decodeTuples(rd, cs.Schema())
	if err := rd.finish(); err != nil {
		appendErrFrame(&w, f.id, http.StatusBadRequest, err.Error())
		return w.buf
	}
	began := time.Now()
	status, msg := n.admitFromPeer(cs, ns, pred, hidden.Result{Overflow: overflow, Tuples: tuples}, seq, scope)
	var st *obs.Subtree
	if wantTrace && status == putStatusOK {
		st = &obs.Subtree{Replica: n.self, Spans: []obs.WireSpan{{
			G: uint8(obs.StageEpochFence),
			O: uint8(obs.OutcomeOK),
			D: time.Since(began).Nanoseconds(),
		}}}
	}
	start := beginFrame(&w, opPutResp, 0, f.id)
	w.u8(byte(status))
	w.str(msg)
	appendSubtree(&w, st)
	endFrame(&w, start)
	return w.buf
}

// v2ServeRing answers one opRing frame with the ring document — the
// health probe and the epoch gossip both read it.
func (n *Node) v2ServeRing(f frame) []byte {
	var w wireWriter
	start := beginFrame(&w, opRingResp, 0, f.id)
	appendRingResponse(&w, n.ringDoc())
	endFrame(&w, start)
	return w.buf
}

// v2ServeObs answers one opObs frame with the local observability
// snapshot.
func (n *Node) v2ServeObs(f frame) []byte {
	var w wireWriter
	if n.snapshotFn == nil {
		appendErrFrame(&w, f.id, http.StatusNotFound, "observability disabled")
		return w.buf
	}
	start := beginFrame(&w, opObsResp, 0, f.id)
	if err := appendObsResponse(&w, n.snapshotFn()); err != nil {
		w.buf = w.buf[:0]
		appendErrFrame(&w, f.id, http.StatusInternalServerError, err.Error())
		return w.buf
	}
	endFrame(&w, start)
	return w.buf
}

// trackV2Conn registers an established v2 server connection so
// CloseV2Conns can sever it.
func (n *Node) trackV2Conn(c net.Conn) {
	n.v2mu.Lock()
	if n.v2conns == nil {
		n.v2conns = make(map[net.Conn]struct{})
	}
	n.v2conns[c] = struct{}{}
	n.v2mu.Unlock()
}

func (n *Node) untrackV2Conn(c net.Conn) {
	n.v2mu.Lock()
	delete(n.v2conns, c)
	n.v2mu.Unlock()
}

// CloseV2Conns severs every established v2 server connection. Hijacked
// connections outlive their HTTP server's Close (the server forgets
// them at the hijack), so simulating or executing a replica's death
// must sever them explicitly — peers then re-send their in-flight
// frames on fresh dials, and indict this replica once it refuses them.
func (n *Node) CloseV2Conns() {
	n.v2mu.Lock()
	conns := make([]net.Conn, 0, len(n.v2conns))
	for c := range n.v2conns {
		conns = append(conns, c)
	}
	n.v2mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close releases the node's long-lived transport state: pooled client
// connections and established v2 server connections. The node remains
// usable afterwards (connections re-dial on demand); Close exists so
// tests and shutdowns don't leak sockets and serve loops.
func (n *Node) Close() {
	n.transport.close()
	n.CloseV2Conns()
}
