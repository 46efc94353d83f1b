//! The per-layer metrics a traced run reports. Every workload prints
//! all of them; a layer that does no work in a workload reads 0 there.

use selprop_datalog::{Materialization, MemStats};

use crate::common::{ms, Outcome, SnapPath, Tracer};

#[derive(Default)]
pub struct Layers {
    pub eval_e1_fixpoint_ms: f64,
    pub eval_e5_fixpoint_ms: f64,
    pub eval_probes_per_tuple: f64,
    pub eval_firings_per_tuple: f64,
    pub plan_replans: f64,
    pub plan_index_rows: f64,
    pub plan_tc_hits: f64,
    pub materialize_apply_ms: f64,
    pub materialize_insert_ms: f64,
    pub materialize_retract_ms: f64,
    pub materialize_tuples_per_firing: f64,
    pub materialize_csr_builds: f64,
    pub materialize_compactions: f64,
    pub storage: MemStats,
    pub cache_hit_rate: f64,
    pub cache_hit_us: f64,
    pub cache_build_us: f64,
    pub cache_evictions: f64,
    pub cache_view_words: f64,
    pub cache_template_compiles: f64,
    pub cache_sync_ms: f64,
    pub server_apply_overhead_ms: f64,
    pub server_snapshot_us: f64,
    pub server_writer_busy_share: f64,
    pub server_generator_lag_ms: f64,
    pub server_compactions: f64,
    pub persist_encode_ms: f64,
    pub persist_decode_ms: f64,
    pub persist_write_ms: f64,
    pub persist_bytes_per_tuple: f64,
    pub trace_spans: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    pub fn emit(&self, out: &mut Outcome) {
        let m = &self.storage;
        let dead = if m.total_rows == 0 {
            0.0
        } else {
            (m.total_rows - m.live_rows) as f64 / m.total_rows as f64
        };
        let rows: [(&str, f64, &'static str); 37] = [
            ("eval.e1_fixpoint_ms", self.eval_e1_fixpoint_ms, "ms"),
            ("eval.e5_fixpoint_ms", self.eval_e5_fixpoint_ms, "ms"),
            ("eval.probes_per_tuple", self.eval_probes_per_tuple, "ratio"),
            (
                "eval.firings_per_tuple",
                self.eval_firings_per_tuple,
                "ratio",
            ),
            ("plan.replans", self.plan_replans, "count"),
            ("plan.index_rows", self.plan_index_rows, "count"),
            ("plan.tc_hits", self.plan_tc_hits, "count"),
            ("materialize.apply_ms", self.materialize_apply_ms, "ms"),
            ("materialize.insert_ms", self.materialize_insert_ms, "ms"),
            ("materialize.retract_ms", self.materialize_retract_ms, "ms"),
            (
                "materialize.tuples_per_firing",
                self.materialize_tuples_per_firing,
                "ratio",
            ),
            (
                "materialize.csr_builds",
                self.materialize_csr_builds,
                "count",
            ),
            (
                "materialize.compactions",
                self.materialize_compactions,
                "count",
            ),
            ("storage.tuple_words", m.tuple_words as f64, "words"),
            ("storage.index_words", m.index_words as f64, "words"),
            ("storage.seg_words", m.seg_words as f64, "words"),
            ("storage.just_words", m.just_words as f64, "words"),
            ("storage.rev_words", m.rev_words as f64, "words"),
            ("storage.dead_row_share", dead, "ratio"),
            ("cache.hit_rate", self.cache_hit_rate, "ratio"),
            ("cache.hit_us", self.cache_hit_us, "us"),
            ("cache.build_us", self.cache_build_us, "us"),
            ("cache.evictions", self.cache_evictions, "count"),
            ("cache.view_words", self.cache_view_words, "words"),
            (
                "cache.template_compiles",
                self.cache_template_compiles,
                "count",
            ),
            ("cache.sync_ms", self.cache_sync_ms, "ms"),
            (
                "server.apply_overhead_ms",
                self.server_apply_overhead_ms,
                "ms",
            ),
            ("server.snapshot_us", self.server_snapshot_us, "us"),
            (
                "server.writer_busy_share",
                self.server_writer_busy_share,
                "ratio",
            ),
            (
                "server.generator_lag_ms",
                self.server_generator_lag_ms,
                "ms",
            ),
            ("server.compactions", self.server_compactions, "count"),
            ("persist.encode_ms", self.persist_encode_ms, "ms"),
            ("persist.decode_ms", self.persist_decode_ms, "ms"),
            ("persist.write_ms", self.persist_write_ms, "ms"),
            ("persist.bytes_per_tuple", self.persist_bytes_per_tuple, "B"),
            ("trace.spans", self.trace_spans, "count"),
            ("trace.overhead_pct", self.trace_overhead_pct, "%"),
        ];
        for (name, value, unit) in rows {
            out.put(name, value, unit);
        }
    }

    /// Splits `save` of `m` into encode (`to_bytes`) and file write, and
    /// times decode (`from_bytes`).
    pub fn note_persist(&mut self, m: &Materialization, tr: &mut Tracer, out: &mut Outcome) {
        let (bytes, d_enc) = tr.time("persist.to_bytes", 0, || m.to_bytes());
        let (back, d_dec) = tr.time("persist.from_bytes", 0, || {
            Materialization::from_bytes(&bytes)
        });
        out.check(back.is_ok(), || "from_bytes".into());
        drop(back);
        let snap = SnapPath::new("persist");
        let (saved, d_save) = tr.time("persist.save", 0, || m.save(snap.path()));
        out.check(saved.is_ok(), || "save".into());
        self.persist_encode_ms = ms(d_enc);
        self.persist_decode_ms = ms(d_dec);
        self.persist_write_ms = ms(d_save) - ms(d_enc);
        self.persist_bytes_per_tuple = bytes.len() as f64 / m.mem_stats().live_rows as f64;
    }
}
