//! Concurrent-admission determinism: the same request stream must produce
//! bitwise-identical responses at every worker count, and a shuffled
//! arrival order must produce the identical numeric payload per request
//! id (the `source` label is admission-order dependent by contract; the
//! plans are not).

use std::collections::HashMap;
use std::sync::Arc;

use ckpt_bench::testgen;
use ckpt_failure::{Pcg64, RandomSource};
use ckpt_service::{PlanInstance, PlanRequest, PlanResponse, Planner, RateBucketing};

/// A deterministic Zipf-flavoured request stream: a few hot shapes take
/// most of the traffic, a tail of cold shapes the rest; ~25% of requests
/// are mid-run re-plans; rates are drawn from a small telemetry-like set.
fn build_stream(seed: u64, shapes: usize, max_n: usize, count: usize) -> Vec<PlanRequest> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let instances: Vec<(PlanInstance, usize)> = (0..shapes)
        .map(|k| {
            let n = 2 + (k * 37) % (max_n - 1);
            let problem = testgen::heterogeneous_chain_instance(seed ^ (k as u64) << 17, n, 1e-4);
            (PlanInstance::from_chain_instance(&problem).expect("chain"), n)
        })
        .collect();
    let rates = [2e-5, 1e-4, 1.07e-4, 5e-4];
    (0..count as u64)
        .map(|id| {
            // Hot set: half the traffic hits the first two shapes.
            let which = if rng.next_bool(0.5) {
                rng.next_bounded(2.min(shapes as u64)) as usize
            } else {
                rng.next_bounded(shapes as u64) as usize
            };
            let (instance, n) = &instances[which];
            let rate = rates[rng.next_bounded(rates.len() as u64) as usize];
            if *n > 1 && rng.next_bool(0.25) {
                let from = 1 + rng.next_bounded(*n as u64 - 1) as usize;
                PlanRequest::replan(id, instance.clone(), rate, from).expect("valid")
            } else {
                PlanRequest::plan(id, instance.clone(), rate).expect("valid")
            }
        })
        .collect()
}

/// Serves the stream in batches on a fresh planner with the given worker
/// count.
fn serve(stream: &[PlanRequest], threads: usize, batch: usize) -> Vec<PlanResponse> {
    let mut planner = Planner::new(RateBucketing::log_grid(1e-6, 1e-3, 13).expect("valid grid"))
        .with_threads(threads);
    stream.chunks(batch).flat_map(|chunk| planner.serve_batch(chunk)).collect()
}

/// The order-invariant payload of a response (everything but `source`,
/// which by contract reflects arrival order).
fn payload(response: &PlanResponse) -> (u64, u64, usize, u64, Arc<Vec<usize>>) {
    (
        response.lambda.to_bits(),
        response.effective_lambda.to_bits(),
        response.resume_from,
        response.expected_makespan.to_bits(),
        Arc::clone(&response.checkpoint_positions),
    )
}

fn assert_thread_count_invariance(stream: &[PlanRequest], batch: usize) {
    let serial = serve(stream, 1, batch);
    for threads in [2usize, 3, 8] {
        let parallel = serve(stream, threads, batch);
        assert_eq!(
            parallel, serial,
            "responses diverge between 1 and {threads} workers (batch size {batch})"
        );
    }
}

fn assert_shuffle_invariance(stream: &[PlanRequest], seed: u64, batch: usize) {
    let baseline: HashMap<u64, _> =
        serve(stream, 3, batch).iter().map(|r| (r.id, payload(r))).collect();
    let mut shuffled = stream.to_vec();
    let mut rng = Pcg64::seed_from_u64(seed);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    let reordered = serve(&shuffled, 3, batch);
    assert_eq!(reordered.len(), baseline.len());
    for response in &reordered {
        let expected = &baseline[&response.id];
        assert_eq!(&payload(response), expected, "request {} diverges under shuffle", response.id);
    }
}

#[test]
fn responses_are_bit_identical_at_every_worker_count() {
    let stream = build_stream(11, 6, 40, 160);
    assert_thread_count_invariance(&stream, 64);
    // A different batching still matches itself across worker counts.
    assert_thread_count_invariance(&stream, 7);
}

#[test]
fn shuffled_arrival_order_serves_identical_plans() {
    let stream = build_stream(23, 6, 40, 160);
    assert_shuffle_invariance(&stream, 99, 64);
}

#[test]
fn batch_split_does_not_change_plans() {
    // Serving one big batch vs many small ones: same payload per id
    // (sources may differ — a coalesced duplicate in one batch becomes a
    // cache hit across batches).
    let stream = build_stream(37, 5, 32, 120);
    let one_batch: HashMap<u64, _> =
        serve(&stream, 2, stream.len()).iter().map(|r| (r.id, payload(r))).collect();
    for response in serve(&stream, 2, 9) {
        assert_eq!(payload(&response), one_batch[&response.id]);
    }
}

/// The Monte-Carlo-sized version of the determinism wall: thousands of
/// requests over larger chains, every worker count, plus a shuffle pass.
#[test]
fn release_sized_stream_is_deterministic() {
    let stream = build_stream(2024, 24, 512, 4000);
    assert_thread_count_invariance(&stream, 256);
    assert_shuffle_invariance(&stream, 4242, 256);
}
