// Package server implements regiongrowd's HTTP segmentation service: an
// asynchronous job API over a bounded persistent worker pool (each job is
// one closure that computes, derives the region statistics, warms the
// cache and settles its record on its worker), an LRU result cache, a
// TTL-bounded job-record store, and
// the handlers for /v1/jobs, /v1/batch, /v1/segment, /v1/stats, and
// /healthz.
//
// The service accepts PGM uploads (or the paper's six evaluation images
// by name). POST /v1/jobs enqueues a segmentation and answers 202 with a
// versioned job record (the regiongrow/client wire types — the server
// serializes the SDK's own structs, so they cannot drift); GET
// /v1/jobs/{id} polls it; GET /v1/jobs/{id}/events streams the job's
// typed stage events as Server-Sent Events (full replay, then live)
// terminating in a done/failed/canceled event carrying the final record;
// DELETE /v1/jobs/{id} cancels via the job's context; POST /v1/batch
// fans a JSON manifest or a multipart set of PGMs out as one job per
// item. POST /v1/segment is the synchronous compatibility path,
// implemented as a waiter over the same job machinery.
//
// Results are cached by (image content hash, canonicalized config,
// engine kind) — sound because every engine is deterministic, so equal
// keys imply byte-identical output; a resubmitted job completes from the
// cache without computing. An entry holds the segmentation and its region
// statistics, so a hit recomputes nothing. A full job queue — or a job store full of
// unfinished work — rejects new submissions with 429 Too Many Requests
// rather than queueing unboundedly; finished records are evicted after
// Options.JobTTL (or oldest-finished-first at Options.JobCapacity), and
// Close drains accepted work so graceful shutdown loses nothing.
//
// Jobs run through pooled per-engine regiongrow.Segmenter sessions. A
// synchronous request's job carries the request context: a client
// disconnect or the per-request deadline (Options.RequestTimeout;
// answered 504 naming the stage reached) cancels the engine within one
// split/merge iteration, unless Options.WarmAbandoned keeps abandoned
// jobs running to warm the cache. Asynchronous jobs run detached until
// they finish, hit the deadline, or are cancelled. Each job's record is
// its stage observer: it feeds the record's progress (and SSE followers)
// plus /v1/stats' per-stage gauges, and the cancellation counters are
// split by cause (disconnect vs deadline).
package server
