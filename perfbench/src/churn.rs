//! `serve_churn`: a `Server` over the E1 closure. An open-loop writer
//! applies mixed rounds at a fixed rate (each inserts fresh leaf edges
//! under seeded DAG nodes and retracts the edges inserted `WINDOW`
//! rounds earlier); one closed-loop reader keeps about 16 hot views warm
//! with `Server::query` and reads them through pinned snapshots. The
//! run is split into segments, each on a store built anew and each
//! ending with save, restore, `enable_query_cache` and a verified
//! re-query. DRed, re-planning, view sync, locking, pins and deferred
//! compaction do most of the work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use selprop_datalog::ast::{Atom, Const};
use selprop_datalog::eval::Strategy;
use selprop_datalog::{CompactionPolicy, Materialization, QueryCache, Server, UpdateRound};

use crate::common::{
    fingerprint, median, ms, self_time_note, tail, tracing_overhead_pct, us, window_p99,
    write_trace, Outcome, Rng, SnapPath, Tracer,
};
use crate::inputs::{self, bound_goal};
use crate::layers::Layers;
use crate::oracle::{checked, Edges};
use crate::Config;

/// Segments per run. Copies of the same store built seconds apart in
/// one process run the same rounds at speeds up to 2x apart, each copy
/// steadily at its own speed, so a run splits its time over several
/// copies: each segment builds its store anew (its set-up; `setup_s` is
/// the median over segments) and runs an equal share of the timed loop.
const SEGMENTS: usize = 4;
/// Rounds per second the writer is scheduled at.
const RATE: f64 = 2.0;
/// Fresh edges inserted per round.
const EDGES: usize = 4;
/// A round retracts the edges inserted this many rounds before it.
const WINDOW: usize = 4;
/// Hot keys the reader cycles through (the default cache holds 64).
const HOT: usize = 16;
/// Save/restore cycles at the end of each segment.
const PERSIST_REPS: usize = 4;
/// Compact once a relation holds this many dead rows: a round retracts
/// about 2,900 `anc` rows, so this is about every 14 rounds, four times
/// in a 30 s run. More often, the view rebuilds each compaction forces
/// on the reader approach 1% of its operations and `query_p99_us`
/// jumps between the two populations.
const POLICY: CompactionPolicy = CompactionPolicy {
    min_dead_rows: 40_000,
    dead_percent: 0,
};
/// Reader ops per window of `query_p99_us` (about half a second).
const QUERY_WINDOW: usize = 1_000;
/// Reader ops the traced run's overhead measurement runs twice each.
const OVERHEAD_READS: usize = 1024;
/// Rounds each traced replay re-applies.
const REPLAY_ROUNDS: usize = 16;

/// One round of the seeded stream: the fresh edges it inserts.
struct Round {
    inserts: Vec<(Const, Const)>,
}

fn update_round(stream: &[Round], i: usize, par: selprop_datalog::ast::Pred) -> UpdateRound {
    let mut r = UpdateRound::new();
    for &(a, f) in &stream[i].inserts {
        r = r.insert(par, vec![a, f]);
    }
    if i >= WINDOW {
        for &(a, f) in &stream[i - WINDOW].inserts {
            r = r.retract(par, vec![a, f]);
        }
    }
    r
}

/// One reader op as recorded: key, epoch before the live query, pinned
/// epoch, and both answers' fingerprints.
struct Read {
    key: usize,
    e_lo: u64,
    e_pin: u64,
    live: (usize, u64),
    pinned: (usize, u64),
}

/// One reader op: a live `Server::query` (which keeps the view warm),
/// then the same goal through a pinned snapshot. Returns the op's
/// latency (spans included, fingerprinting for the oracle not) beside
/// what the oracle checks.
fn read(server: &Server, goals: &[Atom], key: usize, tr: &mut Tracer, op: u64) -> (Read, Duration) {
    let g = &goals[key];
    let t = Instant::now();
    tr.open("churn.read", op);
    let e_lo = server.current_epoch();
    let (live, _) = tr.time("server.query", op, || server.query(g));
    let (snap, _) = tr.time("server.snapshot", op, || server.snapshot());
    let (pinned, _) = tr.time("server.snapshot_query", op, || snap.query(g));
    let e_pin = snap.epoch();
    tr.time("server.unpin", op, || drop(snap));
    tr.close();
    let d = t.elapsed();
    let r = Read {
        key,
        e_lo,
        e_pin,
        live: fingerprint(&live),
        pinned: fingerprint(&pinned),
    };
    (r, d)
}

/// What one segment is built from: the E1 store, the seeded round
/// stream and the hot goals. Every segment of a run builds the same.
struct Inputs {
    e1: inputs::E1,
    stream: Vec<Round>,
    goals: Vec<Atom>,
}

fn build_inputs(seed: u64, n_rounds: usize) -> Inputs {
    let mut e1 = inputs::e1();
    // The seed picks columns; ranks follow a fixed schedule, so every
    // seed does the same amount of work (a node's ancestor and
    // descendant counts depend on its rank only).
    let mut srng = Rng::new(seed);
    let mut node = |rank: usize| e1.nodes[rank * inputs::E1_WIDTH + srng.below(inputs::E1_WIDTH)];
    let parents: Vec<Const> = (0..n_rounds * EDGES)
        .map(|n| node((n * 29) % (inputs::E1_LAYERS + 1)))
        .collect();
    // Hot keys from the upper half of the DAG, so answers are large.
    let keys: Vec<Const> = (0..HOT).map(|i| node(2 * i)).collect();
    let stream: Vec<Round> = (0..n_rounds)
        .map(|i| Round {
            inserts: (0..EDGES)
                .map(|j| {
                    (
                        parents[i * EDGES + j],
                        e1.prog.symbols.constant(&format!("cf{i}_{j}")),
                    )
                })
                .collect(),
        })
        .collect();
    let goals: Vec<Atom> = keys
        .iter()
        .map(|&k| bound_goal(&mut e1.prog, e1.anc, k))
        .collect();
    Inputs { e1, stream, goals }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(cfg.trace, origin);
    let mut rtr = Tracer::new(cfg.trace, origin);

    // Every segment replays the same round stream from epoch 0.
    let seg_seconds = cfg.seconds / SEGMENTS as f64;
    let n_rounds = (seg_seconds * RATE).ceil() as usize + WINDOW;
    let (mut setups, mut fix_s) = (Vec::new(), Vec::new());
    let (mut round_ms, mut lag_ms) = (Vec::new(), Vec::new());
    let (mut reads, mut read_us) = (Vec::new(), Vec::new());
    let (mut busy, mut run_s, mut read_s) = (Duration::ZERO, 0.0, 0.0);
    let (mut save_ms, mut restore_ms, mut cold_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Re-queries after restores: (key, epoch, fingerprint).
    let mut requeries = Vec::new();
    let (mut compactions, mut hits, mut lookups, mut evictions) = (0, 0, 0, 0);
    let mut trace_overhead_pct = 0.0;
    let mut last = None;
    for seg in 0..SEGMENTS {
        drop(last.take());
        // ---- set-up: inputs, initial fixpoint, window warm-up, hot views ----
        let t = Instant::now();
        let Inputs { e1, stream, goals } = build_inputs(cfg.seed, n_rounds);
        let (server, d_fix) = tr.time("server.from_database", seg as u64, || {
            Server::from_database(&e1.prog, &e1.db, Strategy::SemiNaive)
        });
        fix_s.push(d_fix.as_secs_f64());
        let init_stats = server.stats();
        server.set_compaction_policy(Some(POLICY));
        for i in 0..WINDOW {
            server.apply(&update_round(&stream, i, e1.par));
        }
        for g in &goals {
            server.query(g);
        }
        setups.push(t.elapsed().as_secs_f64());
        let cache0 = server.cache_stats();
        let compactions0 = server.compactions();

        // ---- timed: open-loop writer (this thread) and closed-loop reader ----
        let stop = AtomicBool::new(false);
        let t_run = Instant::now();
        let rtr_seg = &mut rtr;
        let (seg_reads, seg_lat, seg_read_time) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut rrng = Rng::new(cfg.seed ^ 0x5eed ^ seg as u64);
                let (mut reads, mut lat) = (Vec::new(), Vec::new());
                let t0 = Instant::now();
                let mut op = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rrng.below(goals.len());
                    let (r, d) = read(&server, &goals, key, rtr_seg, op);
                    reads.push(r);
                    lat.push(us(d));
                    op += 1;
                }
                (reads, lat, t0.elapsed())
            });
            for i in WINDOW..stream.len() {
                let due = Duration::from_secs_f64((i - WINDOW) as f64 / RATE);
                if due.as_secs_f64() >= seg_seconds {
                    break;
                }
                let now = t_run.elapsed();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let start = t_run.elapsed();
                lag_ms.push(ms(start.saturating_sub(due)));
                tr.open("churn.round", i as u64);
                let round = update_round(&stream, i, e1.par);
                let (report, _) = tr.time("server.apply", i as u64, || server.apply(&round));
                tr.close();
                let end = t_run.elapsed();
                busy += end - start;
                round_ms.push(ms(end - due));
                out.check(
                    report.inserted == EDGES && report.retracted == EDGES,
                    || {
                        format!(
                            "round {i}: inserted {} retracted {}",
                            report.inserted, report.retracted
                        )
                    },
                );
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread panicked")
        });
        run_s += t_run.elapsed().as_secs_f64();
        read_s += seg_read_time.as_secs_f64();
        reads.extend(seg_reads);
        read_us.extend(seg_lat);
        let last_round = server.current_epoch();
        let cache1 = server.cache_stats();
        hits += cache1.hits - cache0.hits;
        lookups += (cache1.hits + cache1.misses + cache1.syncs + cache1.direct)
            - (cache0.hits + cache0.misses + cache0.syncs + cache0.direct);
        evictions += cache1.evictions - cache0.evictions;
        compactions += server.compactions() - compactions0;

        // Traced only, once: reader ops with the writer idle, each
        // untraced and traced, which measures what recording spans adds
        // to an op.
        if cfg.trace && seg + 1 == SEGMENTS {
            let mut extra = Vec::new();
            trace_overhead_pct = tracing_overhead_pct(origin, OVERHEAD_READS, |t, i| {
                let (r, d) = read(&server, &goals, i % goals.len(), t, i as u64);
                extra.push(r);
                d
            });
            reads.extend(extra);
        }

        // ---- end: save, restore, re-arm the cache, verified cold re-query ----
        for rep in 0..PERSIST_REPS {
            let snap = SnapPath::new("serve_churn");
            let (saved, d) = tr.time("server.save", rep as u64, || server.save(snap.path()));
            save_ms.push(ms(d));
            out.check(saved.is_ok(), || format!("save: {saved:?}"));
            let (restored, d) = tr.time("server.restore", rep as u64, || {
                Server::restore(snap.path())
            });
            drop(snap);
            restore_ms.push(ms(d));
            match restored {
                Ok(r) => {
                    out.check(r.current_epoch() == last_round, || "restored epoch".into());
                    r.enable_query_cache(&e1.prog);
                    for (k, g) in goals.iter().enumerate() {
                        let (a, d) = tr.time("server.cold_query", rep as u64, || r.query(g));
                        cold_ms.push(ms(d));
                        requeries.push((k, last_round, fingerprint(&a)));
                    }
                }
                Err(e) => out.check(false, || format!("restore: {e}")),
            }
        }
        last = Some((e1, stream, goals, server, init_stats));
    }
    let (e1, stream, goals, server, first_stats) = last.expect("at least one segment");
    let closure_tuples = first_stats.tuples_derived;
    let e1_fix_ms = median(&fix_s) * 1e3;
    let mem = server.mem_stats();
    let peak = crate::common::peak_rss_mb();

    // ---- oracle: replay the mirror epoch by epoch (untimed) ----
    let max_epoch = reads
        .iter()
        .map(|r: &Read| r.e_pin)
        .chain(requeries.iter().map(|r| r.1))
        .max()
        .unwrap_or(0) as usize;
    let mut mirror = Edges::from_relation(e1.db.relation(e1.par));
    let mut expected: Vec<Vec<(usize, u64)>> = Vec::with_capacity(max_epoch + 1);
    for e in 0..=max_epoch {
        if e > 0 {
            let i = e - 1; // epoch e is the state after round i
            for &(a, f) in &stream[i].inserts {
                mirror.add(a.0, f.0);
            }
            if i >= WINDOW {
                for &(a, f) in &stream[i - WINDOW].inserts {
                    mirror.remove(a.0, f.0);
                }
            }
        }
        expected.push(
            goals
                .iter()
                .map(|g| {
                    let selprop_datalog::ast::Term::Const(c) = g.args[0] else {
                        unreachable!("hot goals are bound")
                    };
                    crate::common::fingerprint_vals(mirror.reach(c.0))
                })
                .collect(),
        );
    }
    for r in &reads {
        let pinned_ok = r.pinned == checked(expected[r.e_pin as usize][r.key]);
        out.check(pinned_ok, || {
            format!("pinned read key {} epoch {}", r.key, r.e_pin)
        });
        let live_ok = (r.e_lo..=r.e_pin).any(|e| expected[e as usize][r.key] == r.live);
        out.check(live_ok, || {
            format!("live read key {} epochs {}..={}", r.key, r.e_lo, r.e_pin)
        });
    }
    for &(k, e, fp) in &requeries {
        out.check(fp == expected[e as usize][k], || {
            format!("re-query after restore, key {k} epoch {e}")
        });
    }

    let busy_share = busy.as_secs_f64() / run_s;
    let (round_tail, beyond) = tail(&round_ms);
    out.notes.push(format!(
        "segments={} rounds={} (round_tail_ms = p75, {beyond} beyond) reads={} compactions={compactions} writer_busy={busy_share:.2} lag_p50={:.2}ms",
        SEGMENTS,
        round_ms.len(),
        read_us.len(),
        median(&lag_ms)
    ));

    out.put("setup_s", median(&setups), "s");
    out.put(
        "closure_tuples_per_s",
        closure_tuples as f64 / (e1_fix_ms / 1e3),
        "1/s",
    );
    out.put("bound_query_ms", median(&cold_ms), "ms");
    out.put("save_ms", median(&save_ms), "ms");
    out.put("restore_ms", median(&restore_ms), "ms");
    out.put("round_p50_ms", median(&round_ms), "ms");
    out.put("round_tail_ms", round_tail, "ms");
    out.put("query_p50_us", median(&read_us), "us");
    out.put("query_p99_us", window_p99(&read_us, QUERY_WINDOW), "us");
    out.put("queries_per_s", read_us.len() as f64 / read_s, "1/s");
    out.put("peak_rss_mb", peak, "MiB");
    if !cfg.trace {
        return out;
    }
    out.metrics_to_note("traced end-to-end");

    // ---- traced: replay the same round stream against the bare layers ----
    let mut l = Layers {
        eval_e1_fixpoint_ms: e1_fix_ms,
        eval_probes_per_tuple: first_stats.join_probes as f64 / first_stats.tuples_derived as f64,
        eval_firings_per_tuple: first_stats.rule_firings as f64 / first_stats.tuples_derived as f64,
        storage: mem,
        cache_hit_rate: hits as f64 / lookups.max(1) as f64,
        cache_evictions: evictions as f64,
        cache_view_words: server.cache_view_words() as f64,
        cache_template_compiles: server.cache_stats().template_compiles as f64,
        server_snapshot_us: median(&rtr.durations_ms("server.snapshot")) * 1e3,
        server_writer_busy_share: busy_share,
        server_generator_lag_ms: median(&lag_ms),
        server_compactions: compactions as f64,
        trace_overhead_pct,
        ..Layers::default()
    };
    drop(server);

    let replay = stream.len().min(REPLAY_ROUNDS + WINDOW);
    let base = Materialization::from_database(&e1.prog, &e1.db, Strategy::SemiNaive);
    // (1) the rounds as `retract_facts` then `insert_facts`.
    let mut m = base.clone();
    m.set_compaction_policy(Some(POLICY));
    let (mut ins_ms, mut ret_ms) = (Vec::new(), Vec::new());
    for i in 0..replay {
        if i >= WINDOW {
            let rows: Vec<Vec<Const>> = stream[i - WINDOW]
                .inserts
                .iter()
                .map(|&(a, f)| vec![a, f])
                .collect();
            let (_, d) = tr.time("materialize.retract_facts", i as u64, || {
                m.retract_facts(e1.par, &rows)
            });
            ret_ms.push(ms(d));
        }
        let rows: Vec<Vec<Const>> = stream[i].inserts.iter().map(|&(a, f)| vec![a, f]).collect();
        let (_, d) = tr.time("materialize.insert_facts", i as u64, || {
            m.insert_facts(e1.par, &rows)
        });
        ins_ms.push(ms(d));
    }
    l.materialize_insert_ms = median(&ins_ms[WINDOW..]);
    l.materialize_retract_ms = median(&ret_ms);
    drop(m);

    // (2) each round three ways, one right after the other so the host's
    // speed drifts alike for all three (the order rotates): a bare `Materialization::apply`,
    // `apply` on a `Materialization` whose `QueryCache` then catches its
    // views up, and `Server::apply` on a fresh server holding the same
    // views.
    let mut bare = base.clone();
    let mut cached = base;
    let served = Server::from_database(&e1.prog, &e1.db, Strategy::SemiNaive);
    bare.set_compaction_policy(Some(POLICY));
    cached.set_compaction_policy(Some(POLICY));
    served.set_compaction_policy(Some(POLICY));
    let mut cache = QueryCache::new(&e1.prog);
    let mut build_us = Vec::new();
    for g in &goals {
        let (_, d) = tr.time("cache.build", 0, || cache.query(&mut cached, g));
        build_us.push(us(d));
        served.query(g);
    }
    let (s0, p0, csr0) = (bare.stats(), bare.planner_report(), bare.csr_builds());
    let (mut bare_ms, mut sync_ms, mut hit_us, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..replay {
        let round = update_round(&stream, i, e1.par);
        let (mut d_bare, mut d_served, mut sync) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        // Which way goes first rotates, so none always finds the
        // round's data warm in the CPU caches.
        for way in 0..3 {
            match (way + i) % 3 {
                0 => d_bare = tr.time("materialize.apply", i as u64, || bare.apply(&round)).1,
                1 => {
                    cached.apply(&round);
                    for g in &goals {
                        let (_, d) =
                            tr.time("cache.sync", i as u64, || cache.query(&mut cached, g));
                        sync += d;
                    }
                    for g in &goals {
                        let (_, d) = tr.time("cache.hit", i as u64, || cache.lookup(&cached, g));
                        hit_us.push(us(d));
                    }
                }
                _ => d_served = tr.time("server.apply", i as u64, || served.apply(&round)).1,
            }
        }
        if i >= WINDOW {
            bare_ms.push(ms(d_bare));
            sync_ms.push(ms(sync));
            overhead.push(ms(d_served) - ms(d_bare) - ms(sync));
        }
    }
    let (s1, p1) = (bare.stats(), bare.planner_report());
    l.materialize_apply_ms = median(&bare_ms);
    l.materialize_tuples_per_firing = (s1.tuples_derived - s0.tuples_derived) as f64
        / (s1.rule_firings - s0.rule_firings).max(1) as f64;
    l.materialize_csr_builds = (bare.csr_builds() - csr0) as f64;
    l.materialize_compactions = bare.compactions() as f64;
    l.plan_replans = (p1.replans - p0.replans) as f64;
    l.plan_index_rows = p1.index_rows as f64 - p0.index_rows as f64;
    l.plan_tc_hits = (p1.tc_hits - p0.tc_hits) as f64;
    l.cache_sync_ms = median(&sync_ms);
    l.cache_build_us = median(&build_us);
    l.cache_hit_us = median(&hit_us);
    l.server_apply_overhead_ms = median(&overhead);
    l.note_persist(&bare, &mut tr, &mut out);

    l.trace_spans = (tr.spans.len() + rtr.spans.len()) as f64;
    out.notes.push(self_time_note(&[&tr, &rtr]));
    out.notes.push(format!(
        "trace file: {}",
        write_trace(
            "serve_churn",
            cfg.seed,
            &[("writer", &tr), ("reader", &rtr)]
        )
    ));
    l.emit(&mut out);
    out
}
