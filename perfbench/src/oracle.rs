//! The benchmark's own oracle. It reads only the generated input
//! relations and the benchmark's record of the rounds it sent; it never
//! calls the engine's `reference` evaluator or planner.
//!
//! - `anc(c, Y)`: breadth-first reachability from `c` over the `par`
//!   edges.
//! - `p(x, Y)` with `p(X,Y) :- b1(X,X1), b2(X1,Y)` and
//!   `p(X,Y) :- b1(X,X1), p(X1,Y1), b2(Y1,Y)`: memoized recursion over
//!   `b1`/`b2` (the generated `b1` edges form no cycle).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use selprop_datalog::db::Relation;

/// Set by `--corrupt-oracle`: the next expected answer handed out is
/// deliberately wrong, which must surface as a failed check.
pub static CORRUPT_NEXT: AtomicBool = AtomicBool::new(false);

/// Hands out an expected fingerprint for one check, corrupted once on
/// request.
pub fn checked((n, h): (usize, u64)) -> (usize, u64) {
    if CORRUPT_NEXT.swap(false, Ordering::Relaxed) {
        (n, h ^ 1)
    } else {
        (n, h)
    }
}

/// A mutable edge mirror: the generated edges in compressed rows, plus
/// an overlay of edges added and removed by the benchmark's rounds.
#[derive(Clone)]
pub struct Edges {
    off: Vec<u32>,
    dst: Vec<u32>,
    added: HashMap<u32, Vec<u32>>,
    removed: HashSet<(u32, u32)>,
}

impl Edges {
    /// Mirrors a binary relation `(from, to)`.
    pub fn from_relation(rel: Option<&Relation>) -> Self {
        let mut pairs: Vec<(u32, u32)> = rel
            .map(|r| r.iter().map(|t| (t[0].0, t[1].0)).collect())
            .unwrap_or_default();
        pairs.sort_unstable();
        let n = pairs
            .iter()
            .map(|&(a, _)| a as usize + 1)
            .max()
            .unwrap_or(0);
        let mut off = vec![0u32; n + 1];
        for &(a, _) in &pairs {
            off[a as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        Edges {
            off,
            dst: pairs.into_iter().map(|(_, b)| b).collect(),
            added: HashMap::new(),
            removed: HashSet::new(),
        }
    }

    pub fn add(&mut self, a: u32, b: u32) {
        if !self.removed.remove(&(a, b)) {
            self.added.entry(a).or_default().push(b);
        }
    }

    pub fn remove(&mut self, a: u32, b: u32) {
        if let Some(v) = self.added.get_mut(&a) {
            if let Some(i) = v.iter().position(|&x| x == b) {
                v.swap_remove(i);
                return;
            }
        }
        self.removed.insert((a, b));
    }

    pub fn succ(&self, a: u32) -> impl Iterator<Item = u32> + '_ {
        let base: &[u32] = if (a as usize) + 1 < self.off.len() {
            &self.dst[self.off[a as usize] as usize..self.off[a as usize + 1] as usize]
        } else {
            &[]
        };
        let extra: &[u32] = self.added.get(&a).map_or(&[], |v| v.as_slice());
        base.iter()
            .copied()
            .filter(move |&b| self.removed.is_empty() || !self.removed.contains(&(a, b)))
            .chain(extra.iter().copied())
    }

    /// Nodes reachable from `c` by one or more edges (`anc(c, Y)`).
    pub fn reach(&self, c: u32) -> Vec<u32> {
        let mut seen: HashSet<u32> = HashSet::new();
        let mut queue: Vec<u32> = self.succ(c).collect();
        let mut out = Vec::new();
        while let Some(x) = queue.pop() {
            if seen.insert(x) {
                out.push(x);
                queue.extend(self.succ(x));
            }
        }
        out
    }
}

/// The `b1`/`b2` mirror of the E5 program.
pub struct Chains {
    pub b1: Edges,
    pub b2: Edges,
}

impl Chains {
    /// `p(x, Y)`: the distinct `Y`, by memoized recursion.
    pub fn p(&self, x: u32, memo: &mut HashMap<u32, Vec<u32>>) -> Vec<u32> {
        if let Some(v) = memo.get(&x) {
            return v.clone();
        }
        let mut out: HashSet<u32> = HashSet::new();
        let mids: Vec<u32> = self.b1.succ(x).collect();
        for x1 in mids {
            out.extend(self.b2.succ(x1));
            for y1 in self.p(x1, memo) {
                out.extend(self.b2.succ(y1));
            }
        }
        let v: Vec<u32> = out.into_iter().collect();
        memo.insert(x, v.clone());
        v
    }
}
