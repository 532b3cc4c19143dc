// Package cluster scales the answer cache beyond one process: a
// consistent-hash replica ring with a peer protocol for remote
// answer-cache lookup and admission.
//
// QR2's economics depend on amortizing web-database query cost across
// users. PR 3 pooled every source's answer cache inside one process; at
// service scale the same amortization must span replicas, and the cheapest
// design is the routing-broker one: hash every canonical predicate key
// (namespaced by source) onto a ring of replicas so each cached answer has
// exactly one owner cluster-wide. A replica that receives a query it does
// not own proxies the cache lookup to the owner (opGet); on an owner miss
// it pays the web-database query itself and asynchronously admits the
// answer to the owner (opPut), so no replica ever pays for an answer any
// replica already holds.
//
// Failure semantics: per-peer health checking (probe + backoff) excludes
// dead peers from the ring — their key ranges move to the clockwise
// successor, and virtual nodes keep the remapping bounded to roughly the
// dead peer's share. A forward that fails (the passive detection window
// before the prober notices) falls back to serving through the local
// pool, so user requests never fail on a peer outage; the fallback
// entries are plain LRU citizens that age out once the owner returns and
// resumes absorbing the key's traffic.
//
// # Peer transport
//
// Every peer-to-peer exchange — forwards, puts, epoch gossip, fleet
// metric polls and health probes — rides one transport: persistent
// connections carrying length-prefixed binary frames.
//
//	uint32 LE frame length (header + payload, excluded itself)
//	u8     op
//	u8     flags
//	uint64 LE request id
//	payload (op-specific binary codec, see codec.go)
//
// Ops: opHello/opHelloAck open a connection, opGet/opGetResp and
// opPut/opPutResp carry the forward traffic, opRing/opRingResp carry the
// ring document (the health probe and the epoch gossip), opObs/opObsResp
// the observability snapshot, opBatchGet/opBatchResp coalesced lookups,
// and opErr any request-scoped failure (a 5xx-family code indicts the
// peer, a 4xx does not). Frames are capped at maxFrameLen and every
// decoded count field is bounds-checked against the remaining payload
// before allocation, so a hostile length can't balloon memory
// (fuzz_test.go holds the corpus).
//
// The shared listener: a replica has one listen address for users and
// peers. A dialer sends an ordinary HTTP request, GET /cluster/v2 with
// `Upgrade: qr2-peer/2`; the replica hijacks the connection, answers 101
// Switching Protocols, and the two sides exchange hello frames that pin
// the magic and a protocol version (kept so a later version can be
// negotiated; today both sides speak 2). Each peer gets a small pool of
// such connections; request ids multiplex concurrent RPCs over one
// connection and responses return out of order. GET /cluster/ring and
// GET /cluster/obs stay on the mux as read-only JSON for operators;
// peers never call them.
//
// Forward batching: lookups to the same owner pass through a
// group-commit conveyor. The first lookup of a quiet period leaves
// immediately as a plain opGet; while any frame is in flight to that
// peer, later lookups queue and depart together as one opBatchGet when
// the response returns. One in-flight lookup frame per peer keeps
// latency flat at low load and lets occupancy grow with offered load —
// TransportStats.BatchOccupancy histograms it.
//
// The redial backstop: a request whose connection dies while its frame
// is in flight — the peer restarted, a socket was reset, the connection
// dropped mid-handshake — is re-sent on a freshly dialed connection
// within the same attempt. Lookups and puts are idempotent, so the
// re-send is always safe, and a peer restart costs callers a redial,
// never an error. Redials stop at the first failed dial or at the RPC
// deadline.
//
// Which failures indict a peer (peerDownError): a refused or failed
// dial, an upgrade answered with anything but 101, a hello answered
// wrongly, a response that times out, a response that does not decode,
// and a 5xx-family opErr. An indicted peer is marked dead and the
// request is served locally (the failure semantics above). A
// 4xx-family opErr (say, a peer without this source) and a stale-epoch
// put rejection fail only that request. After a failed dial the peer's
// connections back off for a second, so a dead peer doesn't eat a
// connect attempt per forward; the health probe — one opRing round
// trip — ignores that backoff, since it is what detects the recovery.
package cluster
