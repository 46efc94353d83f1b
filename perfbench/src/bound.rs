//! `bound_queries`: a `Server` over the E5 store. One closed-loop client
//! asks `p(k, Y)` with keys Zipf-skewed over 256 constants (the `b1`
//! chain and noise nodes), more than the 64-view cache holds, and every
//! `QUERIES_PER_ROUND` queries applies a small round: fresh noise pairs,
//! or cutting and later splicing the `b1` chain's last link (which
//! changes answers). Each restored copy of the store serves one cycle
//! of rounds, after a verified cold query of every key. The run ends
//! with save, restore, `enable_query_cache` and a verified cold
//! re-query. The view cache,
//! magic templates and LRU eviction do most of the work, beside base
//! rounds through `materialize`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use selprop_datalog::ast::{Atom, Const, Pred, Term};
use selprop_datalog::eval::Strategy;
use selprop_datalog::{CacheConfig, Materialization, QueryCache, Server, UpdateRound};

use crate::common::{
    fingerprint, median, ms, self_time_note, tail, tracing_overhead_pct, us, window_p99,
    write_trace, Outcome, Rng, SnapPath, Tracer, Zipf,
};
use crate::inputs::{self, bound_goal};
use crate::layers::Layers;
use crate::oracle::{checked, Chains, Edges};
use crate::Config;

/// Set-ups per run; `setup_s` is their median. The timed loop runs on
/// copies restored from the first one's snapshot: copies of the same
/// store run the same rounds at speeds far apart, each steadily at its
/// own (see `churn::SEGMENTS`), and a restore costs a twentieth of a
/// set-up. So a run spreads its rounds over many copies.
const SETUPS: usize = 7;
/// Rounds each copy applies: one cycle.
const COPY_ROUNDS: usize = CYCLE;
/// Distinct query keys: the 21 chain nodes plus seeded noise nodes.
const KEYS: usize = 256;
/// Popularity ranks between two chain-node keys.
const CHAIN_STRIDE: usize = 12;
/// Zipf exponent of the key popularity.
const SKEW: f64 = 0.8;
/// Queries between two rounds.
const QUERIES_PER_ROUND: usize = 4_000;
/// Fresh noise pairs a noise round inserts.
const NOISE_PAIRS: usize = 2;
/// Save/restore cycles at the end of the run.
const PERSIST_REPS: usize = 6;

/// Rounds per cycle: three noise rounds, a cut, three noise rounds, a
/// splice. Cuts cost almost nothing and splices several noise rounds,
/// so with one of each per eight rounds both the median and the 75th
/// percentile fall among noise rounds.
const CYCLE: usize = 8;

#[derive(Clone, Copy)]
enum Kind {
    Noise,
    Cut,
    Splice,
}

fn kind(i: usize) -> Kind {
    match i % CYCLE {
        3 => Kind::Cut,
        7 => Kind::Splice,
        _ => Kind::Noise,
    }
}

struct Stream {
    b1: Pred,
    b2: Pred,
    /// The `b1` chain's last link.
    link: (Const, Const),
    /// Fresh noise pairs per round index (empty for cut/splice rounds).
    noise: Vec<Vec<(Const, Const)>>,
}

impl Stream {
    fn round(&self, i: usize) -> UpdateRound {
        let (a, b) = self.link;
        match kind(i) {
            Kind::Noise => {
                let mut r = UpdateRound::new();
                for &(x, y) in &self.noise[i] {
                    r = r.insert(self.b1, vec![x, y]).insert(self.b2, vec![y, x]);
                }
                r
            }
            Kind::Cut => UpdateRound::new().retract(self.b1, vec![a, b]),
            Kind::Splice => UpdateRound::new().insert(self.b1, vec![a, b]),
        }
    }

    /// The same round as per-predicate `retract_facts`/`insert_facts`
    /// calls: `(pred, rows, is_insert)`.
    fn calls(&self, i: usize) -> Vec<(Pred, Vec<Vec<Const>>, bool)> {
        let (a, b) = self.link;
        match kind(i) {
            Kind::Noise => vec![
                (
                    self.b1,
                    self.noise[i].iter().map(|&(x, y)| vec![x, y]).collect(),
                    true,
                ),
                (
                    self.b2,
                    self.noise[i].iter().map(|&(x, y)| vec![y, x]).collect(),
                    true,
                ),
            ],
            Kind::Cut => vec![(self.b1, vec![vec![a, b]], false)],
            Kind::Splice => vec![(self.b1, vec![vec![a, b]], true)],
        }
    }

    /// Applies round `i` to the oracle's mirror.
    fn mirror(&self, i: usize, c: &mut Chains) {
        let (a, b) = self.link;
        match kind(i) {
            Kind::Noise => {
                for &(x, y) in &self.noise[i] {
                    c.b1.add(x.0, y.0);
                    c.b2.add(y.0, x.0);
                }
            }
            Kind::Cut => c.b1.remove(a.0, b.0),
            Kind::Splice => c.b1.add(a.0, b.0),
        }
    }
}

/// What a set-up builds: the E5 store, the query goals (popularity rank
/// order) and the round stream. Every set-up of a run builds the same.
struct Inputs {
    e5: inputs::E5,
    goals: Vec<Atom>,
    stream: Stream,
}

fn build_inputs(seed: u64, rounds: usize) -> Inputs {
    let mut e5 = inputs::e5();
    let mut srng = Rng::new(seed);
    // Popularity rank → key: chain node `i` at rank `12 i`, seeded
    // distinct noise nodes elsewhere, so every seed asks the same mix.
    let mut keys: Vec<Const> = Vec::with_capacity(KEYS);
    for rank in 0..KEYS {
        if rank % CHAIN_STRIDE == 0 && rank / CHAIN_STRIDE < e5.chain.len() {
            keys.push(e5.chain[rank / CHAIN_STRIDE]);
            continue;
        }
        loop {
            let k = e5.noise_a(srng.below(inputs::E5_NOISE));
            if !keys.contains(&k) {
                keys.push(k);
                break;
            }
        }
    }
    let goals: Vec<Atom> = keys
        .iter()
        .map(|&k| bound_goal(&mut e5.prog, e5.p, k))
        .collect();
    let noise = (0..rounds)
        .map(|i| match kind(i) {
            Kind::Noise => (0..NOISE_PAIRS)
                .map(|j| {
                    let x = e5.prog.symbols.constant(&format!("qa{i}_{j}"));
                    let y = e5.prog.symbols.constant(&format!("qb{i}_{j}"));
                    (x, y)
                })
                .collect(),
            _ => Vec::new(),
        })
        .collect();
    let stream = Stream {
        b1: e5.b1,
        b2: e5.b2,
        link: (e5.chain[inputs::E5_LAYERS - 1], e5.chain[inputs::E5_LAYERS]),
        noise,
    };
    Inputs { e5, goals, stream }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(cfg.trace, origin);

    // ---- set-up: inputs, initial fixpoint, template compile ----
    let (mut setups, mut fix_s) = (Vec::new(), Vec::new());
    // The first set-up's store at epoch 0, which every copy restores.
    let initial = SnapPath::new("bound_queries");
    let mut built = None;
    for s in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let Inputs { e5, goals, stream } = build_inputs(cfg.seed, COPY_ROUNDS);
        let (server, d_fix) = tr.time("server.from_database", s as u64, || {
            Server::from_database(&e5.prog, &e5.db, Strategy::SemiNaive)
        });
        fix_s.push(d_fix.as_secs_f64());
        let init_stats = server.stats();
        // The first bound query compiles the magic template.
        server.query(&goals[0]);
        setups.push(t.elapsed().as_secs_f64());
        if s == 0 {
            let saved = server.save(initial.path());
            out.check(saved.is_ok(), || format!("save: {saved:?}"));
        }
        built = Some((e5, goals, stream, init_stats));
    }
    let (e5, goals, stream, first_stats) = built.expect("at least one set-up");
    let e5_fix_ms = median(&fix_s) * 1e3;

    // ---- timed: copies, each `COPY_ROUNDS` rounds and their queries ----
    let zipf = Zipf::new(KEYS, SKEW);
    let mut qrng = Rng::new(cfg.seed ^ 0x9e5);
    // Every checked answer: (key, rounds of the stream applied, fingerprint).
    let mut records: Vec<(u16, u32, (usize, u64))> = Vec::new();
    let (mut query_us, mut round_ms, mut copy_round_p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut query_time, mut run_s) = (Duration::ZERO, 0.0);
    let (mut save_ms, mut restore_ms, mut cold_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut evictions) = (0, 0, 0);
    // The first cycle's queries, which the traced replay sends again.
    let mut replay_keys: Vec<usize> = Vec::new();
    let mut op = 0u64;
    let mut last = None;
    // Whole copies, as many as end nearest `--seconds` of timed loop.
    while last.is_none() || run_s + run_s / copy_round_p50.len() as f64 / 2.0 < cfg.seconds {
        drop(last.take());
        let copy = copy_round_p50.len() as u64;
        let (restored, d) = tr.time("server.restore", copy, || Server::restore(initial.path()));
        restore_ms.push(ms(d));
        let server = match restored {
            Ok(server) => server,
            Err(e) => {
                out.check(false, || format!("restore: {e}"));
                break;
            }
        };
        out.check(server.current_epoch() == 0, || "restored epoch".into());
        server.enable_query_cache(&e5.prog);
        // An empty round builds the dedup tables a restore defers to
        // the first write, so no timed round pays for it.
        server.apply(&UpdateRound::new());
        for (k, g) in goals.iter().enumerate() {
            let (a, d) = tr.time("server.cold_query", copy, || server.query(g));
            cold_ms.push(ms(d));
            records.push((k as u16, 0, fingerprint(&a)));
        }
        let cache0 = server.cache_stats();
        let t_run = Instant::now();
        for epoch in 0..COPY_ROUNDS as u32 {
            for _ in 0..QUERIES_PER_ROUND {
                let k = zipf.sample(&mut qrng);
                let (a, d) = tr.time("server.query", op, || server.query(&goals[k]));
                query_time += d;
                query_us.push(us(d));
                records.push((k as u16, epoch, fingerprint(&a)));
                if copy == 0 && (epoch as usize) < CYCLE {
                    replay_keys.push(k);
                }
                op += 1;
            }
            let round = stream.round(epoch as usize);
            let (report, d) = tr.time("server.apply", u64::from(epoch), || server.apply(&round));
            round_ms.push(ms(d));
            let want = match kind(epoch as usize) {
                Kind::Noise => (2 * NOISE_PAIRS, 0),
                Kind::Cut => (0, 1),
                Kind::Splice => (1, 0),
            };
            out.check((report.inserted, report.retracted) == want, || {
                format!(
                    "round {epoch}: inserted {} retracted {}",
                    report.inserted, report.retracted
                )
            });
        }
        run_s += t_run.elapsed().as_secs_f64();
        copy_round_p50.push(median(&round_ms[round_ms.len() - COPY_ROUNDS..]));
        let cache1 = server.cache_stats();
        hits += cache1.hits - cache0.hits;
        lookups += (cache1.hits + cache1.misses + cache1.syncs + cache1.direct)
            - (cache0.hits + cache0.misses + cache0.syncs + cache0.direct);
        evictions += cache1.evictions - cache0.evictions;
        last = Some(server);
    }
    drop(initial);
    let Some(server) = last else {
        return out;
    };
    let epoch = COPY_ROUNDS as u32;
    let hit_rate = hits as f64 / lookups.max(1) as f64;

    // Traced only: the first round's queries again, each untraced and
    // traced, which measures what recording spans adds to an op.
    let mut trace_overhead_pct = 0.0;
    if cfg.trace {
        let mut answers = Vec::new();
        trace_overhead_pct = tracing_overhead_pct(origin, QUERIES_PER_ROUND, |t, i| {
            let k = replay_keys[i];
            let t0 = Instant::now();
            let (a, _) = t.time("server.query", i as u64, || server.query(&goals[k]));
            let d = t0.elapsed();
            answers.push((k as u16, epoch, fingerprint(&a)));
            d
        });
        records.extend(answers);
    }

    // ---- end: save, restore, re-arm the cache, verified cold re-query ----
    // The last copy's epoch counts the empty round too.
    let final_epoch = u64::from(epoch) + 1;
    for rep in 0..PERSIST_REPS {
        let snap = SnapPath::new("bound_queries");
        let (saved, d) = tr.time("server.save", rep as u64, || server.save(snap.path()));
        save_ms.push(ms(d));
        out.check(saved.is_ok(), || format!("save: {saved:?}"));
        let (restored, d) = tr.time("server.restore", rep as u64, || {
            Server::restore(snap.path())
        });
        drop(snap);
        restore_ms.push(ms(d));
        match restored {
            // Re-arm and re-query once: each re-arm recompiles the
            // template, which costs as much as a round here.
            Ok(r) if rep + 1 < PERSIST_REPS => {
                out.check(r.current_epoch() == final_epoch, || "restored epoch".into());
            }
            Ok(r) => {
                out.check(r.current_epoch() == final_epoch, || "restored epoch".into());
                r.enable_query_cache(&e5.prog);
                for (k, g) in goals.iter().enumerate() {
                    let (a, d) = tr.time("server.cold_query", rep as u64, || r.query(g));
                    cold_ms.push(ms(d));
                    records.push((k as u16, epoch, fingerprint(&a)));
                }
            }
            Err(e) => out.check(false, || format!("restore: {e}")),
        }
    }
    let peak = crate::common::peak_rss_mb();

    // ---- oracle: replay the mirror round by round (untimed) ----
    let mut chains = Chains {
        b1: Edges::from_relation(e5.db.relation(e5.b1)),
        b2: Edges::from_relation(e5.db.relation(e5.b2)),
    };
    records.sort_by_key(|r| r.1);
    let mut at = 0u32;
    let mut memo = HashMap::new();
    let mut expected: HashMap<u16, (usize, u64)> = HashMap::new();
    for &(k, e, fp) in &records {
        while at < e {
            stream.mirror(at as usize, &mut chains);
            at += 1;
            memo.clear();
            expected.clear();
        }
        let want = *expected.entry(k).or_insert_with(|| {
            let Term::Const(c) = goals[k as usize].args[0] else {
                unreachable!("query goals are bound")
            };
            crate::common::fingerprint_vals(chains.p(c.0, &mut memo))
        });
        out.check(fp == checked(want), || format!("query key {k} epoch {e}"));
    }

    let (round_tail, beyond) = tail(&round_ms);
    out.notes.push(format!(
        "copies={} (round_p50_ms of each: {copy_round_p50:.1?}) rounds={} (round_tail_ms = p75, {beyond} beyond) queries={} hit_rate={hit_rate:.3} evictions={evictions} run_s={run_s:.2}",
        copy_round_p50.len(),
        round_ms.len(),
        query_us.len(),
    ));

    out.put("setup_s", median(&setups), "s");
    out.put(
        "closure_tuples_per_s",
        first_stats.tuples_derived as f64 / (e5_fix_ms / 1e3),
        "1/s",
    );
    out.put("bound_query_ms", median(&cold_ms), "ms");
    out.put("save_ms", median(&save_ms), "ms");
    out.put("restore_ms", median(&restore_ms), "ms");
    out.put("round_p50_ms", median(&round_ms), "ms");
    out.put("round_tail_ms", round_tail, "ms");
    out.put("query_p50_us", median(&query_us), "us");
    out.put("query_p99_us", window_p99(&query_us, QUERIES_PER_ROUND), "us");
    out.put(
        "queries_per_s",
        query_us.len() as f64 / query_time.as_secs_f64(),
        "1/s",
    );
    out.put("peak_rss_mb", peak, "MiB");
    if !cfg.trace {
        return out;
    }
    out.metrics_to_note("traced end-to-end");

    // ---- traced: replay the same rounds against the bare layers ----
    let mut l = Layers {
        eval_e5_fixpoint_ms: e5_fix_ms,
        eval_probes_per_tuple: first_stats.join_probes as f64 / first_stats.tuples_derived as f64,
        eval_firings_per_tuple: first_stats.rule_firings as f64 / first_stats.tuples_derived as f64,
        storage: server.mem_stats(),
        cache_hit_rate: hit_rate,
        cache_evictions: evictions as f64,
        cache_view_words: server.cache_view_words() as f64,
        cache_template_compiles: server.cache_stats().template_compiles as f64,
        server_compactions: server.compactions() as f64,
        trace_overhead_pct,
        ..Layers::default()
    };
    drop(server);
    let replay = replay_keys.len() / QUERIES_PER_ROUND;
    let base = Materialization::from_database(&e5.prog, &e5.db, Strategy::SemiNaive);

    // (1) the rounds as per-predicate `retract_facts`/`insert_facts`.
    let mut m = base.clone();
    let (mut ins_ms, mut ret_ms) = (Vec::new(), Vec::new());
    for i in 0..replay {
        for (pred, rows, insert) in stream.calls(i) {
            if insert {
                let (_, d) = tr.time("materialize.insert_facts", i as u64, || {
                    m.insert_facts(pred, &rows)
                });
                ins_ms.push(ms(d));
            } else {
                let (_, d) = tr.time("materialize.retract_facts", i as u64, || {
                    m.retract_facts(pred, &rows)
                });
                ret_ms.push(ms(d));
            }
        }
    }
    l.materialize_insert_ms = median(&ins_ms);
    l.materialize_retract_ms = median(&ret_ms);
    drop(m);

    // (2) the served run's first queries and rounds again, each round
    // three ways, one right after the other so the host's speed drifts
    // alike for all three (the order rotates): a bare `Materialization::apply`, `apply` on a
    // `Materialization` whose `QueryCache` then catches up the views the
    // served cache held at that point, and `Server::apply` on a fresh
    // server that was sent the same queries. The queries go through the
    // `QueryCache` as `Server::query` sends them (`lookup`, then `query`
    // when that misses) and are timed and sorted into hits and builds by
    // the cache's own counters. `resident` mirrors the cache's LRU order
    // (least recent first); catching up in that order keeps it.
    let mut bare = base.clone();
    let mut cached = base;
    let served = Server::from_database(&e5.prog, &e5.db, Strategy::SemiNaive);
    let mut cache = QueryCache::new(&e5.prog);
    let max_views = CacheConfig::default().max_views;
    let mut resident: Vec<usize> = Vec::with_capacity(max_views + 1);
    let touch = |resident: &mut Vec<usize>, k: usize| {
        if let Some(at) = resident.iter().position(|&r| r == k) {
            resident.remove(at);
        }
        resident.push(k);
        if resident.len() > max_views {
            resident.remove(0);
        }
    };
    // The copy started with a cold query of every goal.
    for (k, g) in goals.iter().enumerate() {
        cache.query(&mut cached, g);
        served.query(g);
        touch(&mut resident, k);
    }
    let (s0, p0, csr0) = (bare.stats(), bare.planner_report(), bare.csr_builds());
    let (mut hit_us, mut build_us) = (Vec::new(), Vec::new());
    let (mut bare_ms, mut sync_ms, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for (i, keys) in replay_keys.chunks(QUERIES_PER_ROUND).enumerate() {
        for &k in keys {
            let g = &goals[k];
            let (hit, d) = tr.time("cache.lookup", i as u64, || cache.lookup(&cached, g));
            if hit.is_some() {
                hit_us.push(us(d));
            } else {
                let misses = cache.stats().misses;
                let (_, d) = tr.time("cache.query", i as u64, || cache.query(&mut cached, g));
                if cache.stats().misses > misses {
                    build_us.push(us(d));
                }
            }
            touch(&mut resident, k);
            served.query(g);
        }
        let round = stream.round(i);
        let (mut d_bare, mut d_served, mut sync) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        // Which way goes first rotates, so none always finds the
        // round's data warm in the CPU caches.
        for way in 0..3 {
            match (way + i) % 3 {
                0 => d_bare = tr.time("materialize.apply", i as u64, || bare.apply(&round)).1,
                1 => {
                    cached.apply(&round);
                    for &k in &resident {
                        let (_, d) = tr.time("cache.sync", i as u64, || {
                            cache.query(&mut cached, &goals[k])
                        });
                        sync += d;
                    }
                }
                _ => d_served = tr.time("server.apply", i as u64, || served.apply(&round)).1,
            }
        }
        bare_ms.push(ms(d_bare));
        sync_ms.push(ms(sync));
        overhead.push(ms(d_served) - ms(d_bare) - ms(sync));
    }
    if cache.stats().views != resident.len() {
        out.notes.push(format!(
            "replayed cache holds {} views, the LRU mirror {}: cache.sync_ms covers a different set",
            cache.stats().views,
            resident.len()
        ));
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
    l.cache_hit_us = median(&hit_us);
    l.cache_build_us = median(&build_us);
    l.cache_sync_ms = median(&sync_ms);
    l.server_apply_overhead_ms = median(&overhead);
    l.note_persist(&bare, &mut tr, &mut out);

    l.trace_spans = tr.spans.len() as f64;
    out.notes.push(self_time_note(&[&tr]));
    out.notes.push(format!(
        "trace file: {}",
        write_trace("bound_queries", cfg.seed, &[("client", &tr)])
    ));
    l.emit(&mut out);
    out
}
