//! The multi-objective genetic algorithm of §3.2.2.
//!
//! The solver mimics natural selection over a constant-size population of
//! `P` chromosomes for `G` generations:
//!
//! * **crossover** — two children from two random parents, swapping genes
//!   after a random cut point;
//! * **mutation** — each child gene bit-flips with low probability `p_m`;
//! * **selection** — the pool (parents + children) is split into the Pareto
//!   solutions (*Set 1*) and the rest (*Set 2*); Set 1 passes to the next
//!   generation first, then the *newest* chromosomes of Set 2; if Set 1
//!   alone exceeds `P`, the newest of Set 1 are kept. Survivor ages
//!   increment every generation, children start at age 0.
//!
//! Every chromosome is kept feasible via [`MooProblem::repair`], so the
//! capacity constraints of the MOO formulation always hold.
//!
//! The population is *interned*: each distinct pre-repair chromosome a run
//! breeds gets one arena entry holding its repaired chromosome, objectives
//! and objective-group id, and a population member is an 8-byte
//! `(entry, age)` pair. The arena is the repair/evaluate memo — only misses
//! are repaired and evaluated, sharded over [`GaConfig::threads`] — and
//! selection groups members by integer group id, so once a run has
//! converged a generation moves no chromosome and (in the `Pareto` and
//! `Scalar` modes) allocates nothing. [`GaTrace`] counts misses and hits.
//!
//! A scalarized mode ([`SolveMode::Scalar`]) reuses the same evolutionary
//! machinery with "keep the best `P` by weighted sum" selection; this powers
//! the *weighted* and *constrained* comparison policies of §4.3, which the
//! paper describes as single-objective conversions of the same problem.

use crate::chromosome::Chromosome;
use crate::parallel;
use crate::pareto::{dominates, ParetoFront, Solution};
use crate::problem::MooProblem;
use crate::{Objectives, MAX_OBJECTIVES};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// How the GA turns objective vectors into survivor choices.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveMode {
    /// Multi-objective Pareto selection (BBSched proper, §3.2.2):
    /// non-dominated Set 1 survives first, then the newest of the rest.
    Pareto,
    /// NSGA-II-style variant: like [`SolveMode::Pareto`], but overflowing
    /// or tying choices are settled by *crowding distance* instead of age,
    /// preserving front diversity. An ablation of the paper's age rule.
    ParetoCrowding,
    /// Single-objective selection by weighted sum of *normalized*
    /// objectives (weights are applied after dividing each objective by the
    /// problem's [`MooProblem::normalizers`]). Used by the weighted and
    /// constrained comparison methods.
    Scalar(Vec<f64>),
}

/// GA hyper-parameters. Paper defaults (§4.3): window 20, `G = 500`,
/// `P = 20`, `p_m = 0.05 %`.
#[derive(Clone, Debug)]
pub struct GaConfig {
    /// Population size `P`.
    pub population: usize,
    /// Number of generations `G`.
    pub generations: usize,
    /// Per-gene bit-flip probability `p_m`.
    pub mutation_rate: f64,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Selection mode.
    pub mode: SolveMode,
    /// Worker threads for population evaluation (1 = serial). The paper
    /// notes the GA "can be accelerated by leveraging parallel processing".
    pub threads: usize,
    /// Saturation polish: after each child is repaired, greedily select any
    /// still-fitting window job (front-of-window first). Every *exact*
    /// Pareto point of the §3.2.1/§5 problems is saturated — objectives are
    /// monotone in the selection — so polishing weakly dominates the
    /// unpolished chromosome and can only improve the approximation. Off by
    /// default for strict fidelity to the paper's operator set; the
    /// `ga_scaling` ablation quantifies the gain.
    pub saturate: bool,
    /// External Pareto archive: accumulate every individual ever evaluated
    /// into a best-ever front and return *that* instead of the final
    /// generation's Set 1. Immune to the drift where a good point is found
    /// mid-run and later lost. Off by default (the paper returns "the
    /// chromosomes in Set 1 in the final generation").
    pub archive: bool,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 20,
            generations: 500,
            mutation_rate: 0.0005,
            seed: 0x5eed_b00c,
            mode: SolveMode::Pareto,
            threads: 1,
            saturate: false,
            archive: false,
        }
    }
}

/// Errors from [`GaConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum GaConfigError {
    /// Population size below the two parents crossover needs.
    PopulationTooSmall(usize),
    /// Mutation rate outside `[0, 1]`.
    MutationRateOutOfRange(f64),
    /// Zero worker threads requested.
    ZeroThreads,
    /// Scalar mode configured without any weights.
    EmptyScalarWeights,
}

impl std::fmt::Display for GaConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PopulationTooSmall(p) => write!(f, "population must be >= 2, got {p}"),
            Self::MutationRateOutOfRange(r) => {
                write!(f, "mutation_rate must be in [0, 1], got {r}")
            }
            Self::ZeroThreads => write!(f, "threads must be >= 1"),
            Self::EmptyScalarWeights => write!(f, "scalar mode requires at least one weight"),
        }
    }
}

impl std::error::Error for GaConfigError {}

impl GaConfig {
    /// Validates the configuration, returning a typed error for nonsensical
    /// settings.
    pub fn validate(&self) -> Result<(), GaConfigError> {
        if self.population < 2 {
            return Err(GaConfigError::PopulationTooSmall(self.population));
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(GaConfigError::MutationRateOutOfRange(self.mutation_rate));
        }
        if self.threads == 0 {
            return Err(GaConfigError::ZeroThreads);
        }
        if let SolveMode::Scalar(w) = &self.mode {
            if w.is_empty() {
                return Err(GaConfigError::EmptyScalarWeights);
            }
        }
        Ok(())
    }
}

/// One slot of the GA population: an [`Arena`] entry plus its age.
#[derive(Clone, Copy, Debug)]
struct Member {
    id: u32,
    /// Generations survived; children are born with age 0, and "newer
    /// chromosomes have higher priorities" during selection.
    age: u32,
}

/// FNV-1a hasher for the arena: chromosome keys are one or two `u64` words,
/// for which SipHash's per-lookup cost is pure overhead on the GA hot path.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x1000_0000_01b3);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FnvMap<K> = HashMap<K, u32, BuildHasherDefault<FnvHasher>>;

/// The per-solve interned population: one entry per distinct *pre-repair*
/// chromosome ever bred, holding its repaired chromosome, its objectives and
/// its objective-group id. Population members are 8-byte [`Member`]s that
/// point here, so breeding reads parents in place and selection never moves
/// a chromosome.
///
/// The arena is also the repair/evaluate memo. That is sound because repair
/// and saturation are pure functions of the chromosome (the cyclic repair
/// order derives from the content hash, not an RNG) and `evaluate` is pure
/// by the [`MooProblem`] contract. Converged populations breed the same
/// children over and over, so almost every lookup hits.
///
/// Objective groups intern exactly-equal objective vectors (`f64 ==`:
/// `-0.0` joins `0.0`, and a vector holding a NaN equals nothing, so it gets
/// a group of its own), letting selection group members by integer compare.
#[derive(Default)]
struct Arena {
    /// Pre-repair chromosome → entry id.
    ids: FnvMap<Chromosome>,
    /// Per entry: the repaired chromosome (still pre-repair while pending).
    chroms: Vec<Chromosome>,
    /// Per evaluated entry: its objectives and objective-group id. Entries
    /// past `objs.len()` are pending evaluation.
    objs: Vec<Objectives>,
    group: Vec<u32>,
    /// Per entry: the entry keyed by its repaired chromosome, once looked
    /// up (`u32::MAX` before).
    refix: Vec<u32>,
    /// Objective-vector bits → group id.
    group_ids: FnvMap<[u64; MAX_OBJECTIVES]>,
    /// Per group: its objective vector.
    group_objs: Vec<Objectives>,
    /// Lookups that created an entry / found one.
    evaluations: u64,
    memo_hits: u64,
}

impl Arena {
    /// The entry for pre-repair chromosome `c`, created pending on a miss.
    #[inline]
    fn intern(&mut self, c: &Chromosome) -> u32 {
        if let Some(&id) = self.ids.get(c) {
            self.memo_hits += 1;
            return id;
        }
        let id = self.chroms.len() as u32;
        self.ids.insert(c.clone(), id);
        self.chroms.push(c.clone());
        self.refix.push(u32::MAX);
        self.evaluations += 1;
        id
    }

    /// [`Arena::intern`] for a child bred from `parent`. A child equal to
    /// its parent's repaired chromosome — most children, once the
    /// population has converged — is answered from `refix` without hashing.
    #[inline]
    fn intern_child(&mut self, c: &Chromosome, parent: u32) -> u32 {
        if c != self.chrom(parent) {
            return self.intern(c);
        }
        let cached = self.refix[parent as usize];
        if cached != u32::MAX {
            self.memo_hits += 1;
            return cached;
        }
        let id = self.intern(c);
        self.refix[parent as usize] = id;
        id
    }

    /// Repairs (and optionally saturates) and evaluates every pending entry,
    /// sharded over `threads`; returns the range of entries it evaluated.
    fn evaluate_pending<P: MooProblem + ?Sized>(
        &mut self,
        problem: &P,
        threads: usize,
        saturate: bool,
    ) -> Range<usize> {
        let fresh = self.objs.len()..self.chroms.len();
        let chroms = &mut self.chroms[fresh.clone()];
        for o in parallel::repair_and_evaluate(problem, chroms, threads, saturate) {
            let mut key = [0u64; MAX_OBJECTIVES];
            for (k, v) in key.iter_mut().zip(o.as_slice()) {
                *k = (v + 0.0).to_bits();
            }
            let next = self.group_objs.len() as u32;
            let g = if o.as_slice().iter().any(|v| v.is_nan()) {
                next
            } else {
                *self.group_ids.entry(key).or_insert(next)
            };
            if g == next {
                self.group_objs.push(o);
            }
            self.objs.push(o);
            self.group.push(g);
        }
        fresh
    }

    #[inline]
    fn chrom(&self, id: u32) -> &Chromosome {
        &self.chroms[id as usize]
    }

    #[inline]
    fn objs(&self, id: u32) -> &Objectives {
        &self.objs[id as usize]
    }

    fn solution(&self, id: u32) -> Solution {
        Solution { chromosome: self.chrom(id).clone(), objectives: *self.objs(id) }
    }
}

/// The multi-objective genetic solver.
#[derive(Clone, Debug)]
pub struct MooGa {
    config: GaConfig,
}

impl MooGa {
    /// Creates a solver with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`GaConfig::validate`]).
    pub fn new(config: GaConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid GaConfig: {e}");
        }
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Runs the GA and returns the Pareto front of the final generation
    /// (Set 1, §3.2.2). In scalar mode the returned front holds the single
    /// best solution by weighted sum.
    pub fn solve<P: MooProblem + ?Sized>(&self, problem: &P) -> ParetoFront {
        self.solve_traced(problem, &[]).final_front
    }

    /// Like [`MooGa::solve`], but additionally snapshots the front after
    /// each generation count listed in `checkpoints` (must be sorted
    /// ascending). Used to reproduce Fig. 4 (GD vs. `G`) in one run.
    pub fn solve_traced<P: MooProblem + ?Sized>(
        &self,
        problem: &P,
        checkpoints: &[usize],
    ) -> GaTrace {
        debug_assert!(checkpoints.windows(2).all(|w| w[0] <= w[1]));
        let w = problem.len();
        let mut trace = GaTrace::default();
        if w == 0 {
            for &c in checkpoints {
                trace.checkpoints.push((c, ParetoFront::new()));
            }
            return trace;
        }

        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let p = self.config.population;
        let (threads, saturate) = (self.config.threads, self.config.saturate);
        let norm = problem.normalizers();
        let mut arena = Arena::default();
        let mut archive = ParetoFront::new();
        let mut c1 = Chromosome::zeros(w);
        let mut c2 = Chromosome::zeros(w);

        let mut pop: Vec<Member> = Vec::with_capacity(p);
        for _ in 0..p {
            c1.clear();
            for i in 0..w {
                if rng.random_bool(0.5) {
                    c1.set(i, true);
                }
            }
            pop.push(Member { id: arena.intern(&c1), age: 0 });
        }
        let fresh = arena.evaluate_pending(problem, threads, saturate);
        if self.config.archive {
            fresh.for_each(|id| _ = archive.insert(arena.solution(id as u32)));
        }
        let mut next_checkpoint = 0usize;

        // Snapshot before any evolution if generation 0 is requested.
        while next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] == 0 {
            trace.checkpoints.push((0, self.extract_front(&pop, &arena, &norm)));
            next_checkpoint += 1;
        }

        let mut pool: Vec<Member> = Vec::with_capacity(2 * p);
        let mut scratch = SelectScratch::default();
        for gen in 1..=self.config.generations {
            // --- crossover + mutation -> P children, interned into the arena ---
            pool.clear();
            pool.extend_from_slice(&pop);
            while pool.len() < 2 * p {
                let pa = pop[rng.random_range(0..pop.len())].id;
                let pb = pop[rng.random_range(0..pop.len())].id;
                let point = rng.random_range(0..=w);
                arena.chrom(pa).crossover_into(arena.chrom(pb), point, &mut c1, &mut c2);
                self.mutate(&mut c1, &mut rng);
                self.mutate(&mut c2, &mut rng);
                pool.push(Member { id: arena.intern_child(&c1, pa), age: 0 });
                // With odd `P` the last pair's second child is dropped unseen.
                if pool.len() < 2 * p {
                    pool.push(Member { id: arena.intern_child(&c2, pb), age: 0 });
                }
            }

            // --- repair + evaluate the arena misses only ---
            let fresh = arena.evaluate_pending(problem, threads, saturate);
            if self.config.archive {
                // Re-offering a solution the archive already saw is a no-op
                // (for NaN-free objectives), so only new entries are offered.
                fresh.for_each(|id| _ = archive.insert(arena.solution(id as u32)));
            }

            // --- selection over parents + children ---
            match &self.config.mode {
                SolveMode::Pareto => select_pareto(&pool, p, &arena, &mut scratch, &mut pop),
                SolveMode::ParetoCrowding => {
                    select_crowding(&pool, p, &arena, &mut scratch, &mut pop)
                }
                SolveMode::Scalar(weights) => select_scalar(
                    &pool,
                    p,
                    weights,
                    norm.as_slice(),
                    &arena,
                    &mut scratch,
                    &mut pop,
                ),
            }
            for m in &mut pop {
                m.age += 1;
            }

            while next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] == gen {
                trace.checkpoints.push((gen, self.extract_front(&pop, &arena, &norm)));
                next_checkpoint += 1;
            }
        }

        trace.final_front =
            if self.config.archive { archive } else { self.extract_front(&pop, &arena, &norm) };
        trace.evaluations = arena.evaluations;
        trace.memo_hits = arena.memo_hits;
        trace
    }

    /// Convenience for scalarized policies: returns the single best
    /// solution by the configured weights.
    ///
    /// # Panics
    /// Panics if called on a Pareto-mode solver.
    pub fn solve_scalar<P: MooProblem + ?Sized>(&self, problem: &P) -> Solution {
        assert!(
            matches!(self.config.mode, SolveMode::Scalar(_)),
            "solve_scalar requires SolveMode::Scalar"
        );
        let front = self.solve(problem);
        front.into_solutions().into_iter().next().unwrap_or_else(|| Solution {
            chromosome: Chromosome::zeros(problem.len().max(1)),
            objectives: problem.evaluate(&Chromosome::zeros(problem.len().max(1))),
        })
    }

    #[inline]
    fn mutate(&self, c: &mut Chromosome, rng: &mut SmallRng) {
        let pm = self.config.mutation_rate;
        if pm <= 0.0 {
            return;
        }
        if pm >= 1.0 {
            // `random_bool(1.0)` returns true without consuming a draw.
            for i in 0..c.len() {
                c.flip(i);
            }
            return;
        }
        // Same draw stream as `rng.random_bool(pm)` per gene with the
        // threshold compare hoisted out of the loop: `pm * 2^53` is a pure
        // exponent shift (exact), so `unit_f64(word) < pm` is
        // `(word >> 11) < ceil(pm * 2^53)` on integers, i.e.
        // `word < ceil(pm * 2^53) << 11` (no overflow: `pm < 1`).
        let limit = ((pm * (1u64 << 53) as f64).ceil() as u64) << 11;
        for i in 0..c.len() {
            if rng.next_u64() < limit {
                c.flip(i);
            }
        }
    }

    fn extract_front(&self, pop: &[Member], arena: &Arena, norm: &Objectives) -> ParetoFront {
        match &self.config.mode {
            SolveMode::Pareto | SolveMode::ParetoCrowding => {
                ParetoFront::from_pool(pop.iter().map(|m| arena.solution(m.id)))
            }
            SolveMode::Scalar(weights) => {
                let fitness =
                    |m: &Member| scalar_fitness(arena.objs(m.id), weights, norm.as_slice());
                let best = pop.iter().max_by(|a, b| {
                    fitness(a)
                        .partial_cmp(&fitness(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        // Ties: prefer front-of-window selections.
                        .then_with(|| arena.chrom(b.id).front_preference(arena.chrom(a.id)))
                });
                let mut front = ParetoFront::new();
                if let Some(b) = best {
                    front.insert(arena.solution(b.id));
                }
                front
            }
        }
    }
}

/// Result of a traced GA run.
#[derive(Debug, Default)]
pub struct GaTrace {
    /// `(generation, front)` snapshots at the requested checkpoints.
    pub checkpoints: Vec<(usize, ParetoFront)>,
    /// Front after the final generation.
    pub final_front: ParetoFront,
    /// Chromosomes repaired and evaluated: the distinct pre-repair
    /// chromosomes the run bred (memo misses).
    pub evaluations: u64,
    /// Chromosomes whose repair and objectives came from the memo. Every
    /// bred chromosome is one or the other, so the two sum to `P × (G + 1)`
    /// for a non-empty window.
    pub memo_hits: u64,
}

#[inline]
fn scalar_fitness(objs: &Objectives, weights: &[f64], norm: &[f64]) -> f64 {
    objs.as_slice().iter().zip(norm).zip(weights).map(|((&v, &n), &w)| w * v / n).sum()
}

/// Reusable selection buffers, hoisted out of the per-generation loop.
#[derive(Default)]
struct SelectScratch {
    /// Objective-group id of each distinct group in the pool.
    uniq: Vec<u32>,
    /// Index into `uniq` of each pool member.
    local: Vec<u32>,
    /// Non-domination verdict per distinct group.
    nondom: Vec<bool>,
    /// Whether a Set-1 representative for the group was already taken.
    rep_taken: Vec<bool>,
    /// `(age << 32) | pool index` sort keys.
    set1: Vec<u64>,
    set2: Vec<u64>,
    dups: Vec<Member>,
    /// Scalar mode: fitness plus sort key per member.
    keyed: Vec<(f64, u64)>,
}

/// Groups `pool` by objective group and marks the non-dominated groups,
/// leaving the verdict of member `i` at `s.nondom[s.local[i]]`.
///
/// Equal objective vectors never dominate each other and share every
/// dominance verdict, so the O(n²) comparison loop runs over the *distinct*
/// vectors only. A converged population collapses to a handful of distinct
/// points, which is where the per-generation selection cost used to go.
fn classify(pool: &[Member], arena: &Arena, s: &mut SelectScratch) {
    s.uniq.clear();
    s.local.clear();
    for m in pool {
        let g = arena.group[m.id as usize];
        let l = s.uniq.iter().position(|&u| u == g).unwrap_or_else(|| {
            s.uniq.push(g);
            s.uniq.len() - 1
        });
        s.local.push(l as u32);
    }
    let groups = &arena.group_objs;
    s.nondom.clear();
    s.nondom.extend(s.uniq.iter().map(|&g| {
        let v = groups[g as usize].as_slice();
        !s.uniq.iter().any(|&u| dominates(groups[u as usize].as_slice(), v))
    }));
}

#[inline]
fn age_key(m: &Member, i: usize) -> u64 {
    (u64::from(m.age) << 32) | i as u64
}

/// The §3.2.2 selection: Set 1 (Pareto) first, then newest of Set 2; if
/// Set 1 overflows `p`, keep its newest members.
///
/// One refinement over the paper's prose: within Set 1, *distinct objective
/// points* take priority over duplicates. Without this, a burst of
/// identical age-0 children (crossover of converged parents) can evict an
/// older elite that is the only representative of a better objective point,
/// and the front silently degrades — the textbook elitism-loss failure.
/// Duplicated points only fill leftover slots, newest first, exactly as the
/// paper's age rule prescribes.
///
/// "Newest first" is a sort on `(age << 32) | pool index`: ages ascending,
/// pool order among equals, as a stable sort by age would give.
fn select_pareto(
    pool: &[Member],
    p: usize,
    arena: &Arena,
    s: &mut SelectScratch,
    out: &mut Vec<Member>,
) {
    classify(pool, arena, s);
    s.set1.clear();
    s.set2.clear();
    // Children (age 0, the pool's back half) come before every parent in
    // key order; visiting them first leaves the sets nearly sorted.
    for i in (p..pool.len()).chain(0..p) {
        let set = if s.nondom[s.local[i] as usize] { &mut s.set1 } else { &mut s.set2 };
        set.push(age_key(&pool[i], i));
    }
    s.set1.sort_unstable();

    // One representative per distinct objective vector (the newest) leads,
    // the remaining duplicates follow.
    s.rep_taken.clear();
    s.rep_taken.resize(s.uniq.len(), false);
    out.clear();
    s.dups.clear();
    for &k in &s.set1 {
        let i = k as u32 as usize;
        let taken = std::mem::replace(&mut s.rep_taken[s.local[i] as usize], true);
        if taken {
            s.dups.push(pool[i])
        } else {
            out.push(pool[i])
        }
    }
    out.extend_from_slice(&s.dups);
    if out.len() < p {
        // Fill with the newest of Set 2.
        s.set2.sort_unstable();
        let need = p - out.len();
        out.extend(s.set2.iter().take(need).map(|&k| pool[k as u32 as usize]));
    }
    out.truncate(p);
}

/// NSGA-II-style selection: non-dominated sorting into successive fronts;
/// fronts fill the next generation in rank order, and the last,
/// overflowing front is truncated by descending crowding distance.
fn select_crowding(
    pool: &[Member],
    p: usize,
    arena: &Arena,
    s: &mut SelectScratch,
    out: &mut Vec<Member>,
) {
    out.clear();
    let mut rest = pool.to_vec();
    while out.len() < p && !rest.is_empty() {
        classify(&rest, arena, s);
        let (mut front, mut next_rest) = (Vec::new(), Vec::new());
        for (&m, &l) in rest.iter().zip(&s.local) {
            if s.nondom[l as usize] {
                front.push(m)
            } else {
                next_rest.push(m)
            }
        }
        if out.len() + front.len() <= p {
            out.extend(front);
        } else {
            let points: Vec<&[f64]> = front.iter().map(|m| arena.objs(m.id).as_slice()).collect();
            let dist = crate::pareto::crowding_distance(&points);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| {
                dist[b]
                    .partial_cmp(&dist[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| front[a].age.cmp(&front[b].age))
            });
            let mut keep = vec![false; front.len()];
            order.into_iter().take(p - out.len()).for_each(|i| keep[i] = true);
            out.extend(front.iter().zip(keep).filter(|(_, k)| *k).map(|(m, _)| *m));
        }
        rest = next_rest;
    }
}

/// Scalarized selection: top `p` by weighted normalized sum, newest first on
/// ties (then pool order, as a stable sort would keep it).
fn select_scalar(
    pool: &[Member],
    p: usize,
    weights: &[f64],
    norm: &[f64],
    arena: &Arena,
    s: &mut SelectScratch,
    out: &mut Vec<Member>,
) {
    // Fitness is computed once per member, not once per comparison.
    s.keyed.clear();
    s.keyed.extend(
        pool.iter()
            .enumerate()
            .map(|(i, m)| (scalar_fitness(arena.objs(m.id), weights, norm), age_key(m, i))),
    );
    s.keyed.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });
    out.clear();
    out.extend(s.keyed.iter().take(p).map(|&(_, k)| pool[k as u32 as usize]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{JobDemand, KnapsackMooProblem};
    use crate::resource::ResourceModel;

    fn table1_problem() -> KnapsackMooProblem {
        KnapsackMooProblem::new(
            vec![
                JobDemand::cpu_bb(80, 20_000.0),
                JobDemand::cpu_bb(10, 85_000.0),
                JobDemand::cpu_bb(40, 5_000.0),
                JobDemand::cpu_bb(10, 0.0),
                JobDemand::cpu_bb(20, 0.0),
            ],
            ResourceModel::cpu_bb(100, 100_000.0),
        )
    }

    #[test]
    fn finds_table1_pareto_set() {
        // Paper defaults (G = 500, P = 20, p_m = 0.05%) find both Table-1(b)
        // Pareto points for 49/50 seeds on this toy window; pin a good seed.
        let ga = MooGa::new(GaConfig { generations: 500, seed: 42, ..GaConfig::default() });
        let mut front = ga.solve(&table1_problem());
        front.sort_by_first_objective();
        let points: Vec<Vec<f64>> = front.objective_vectors().map(|v| v.to_vec()).collect();
        // Must contain the two Table-1(b) Pareto points.
        assert!(points.contains(&vec![100.0, 20_000.0]), "missing (100, 20TB): {points:?}");
        assert!(points.contains(&vec![80.0, 90_000.0]), "missing (80, 90TB): {points:?}");
        assert!(front.is_mutually_nondominated());
    }

    #[test]
    fn deterministic_under_seed() {
        let p = table1_problem();
        let cfg = GaConfig { generations: 50, seed: 42, ..GaConfig::default() };
        let a = MooGa::new(cfg.clone()).solve(&p);
        let b = MooGa::new(cfg).solve(&p);
        let va: Vec<Vec<f64>> = a.objective_vectors().map(|v| v.to_vec()).collect();
        let vb: Vec<Vec<f64>> = b.objective_vectors().map(|v| v.to_vec()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn all_front_solutions_feasible() {
        let p = table1_problem();
        let ga = MooGa::new(GaConfig { generations: 100, ..GaConfig::default() });
        let front = ga.solve(&p);
        use crate::problem::MooProblem;
        for s in front.solutions() {
            assert!(p.is_feasible(&s.chromosome));
        }
    }

    #[test]
    fn empty_window_yields_empty_front() {
        let p = KnapsackMooProblem::new(vec![], ResourceModel::cpu_bb(10, 10.0));
        let front = MooGa::new(GaConfig::default()).solve(&p);
        assert!(front.is_empty());
    }

    #[test]
    fn scalar_mode_maximizes_weighted_objective() {
        let p = table1_problem();
        // Pure node weight: the optimum is 100 nodes.
        let cfg = GaConfig {
            generations: 200,
            mode: SolveMode::Scalar(vec![1.0, 0.0]),
            ..GaConfig::default()
        };
        let best = MooGa::new(cfg).solve_scalar(&p);
        assert_eq!(best.objectives[0], 100.0);
        // Pure BB weight: the optimum is 90 TB.
        let cfg = GaConfig {
            generations: 200,
            mode: SolveMode::Scalar(vec![0.0, 1.0]),
            ..GaConfig::default()
        };
        let best = MooGa::new(cfg).solve_scalar(&p);
        assert_eq!(best.objectives[1], 90_000.0);
    }

    #[test]
    fn traced_checkpoints_are_recorded() {
        let p = table1_problem();
        let ga = MooGa::new(GaConfig { generations: 30, ..GaConfig::default() });
        let trace = ga.solve_traced(&p, &[0, 10, 30]);
        let gens: Vec<usize> = trace.checkpoints.iter().map(|(g, _)| *g).collect();
        assert_eq!(gens, vec![0, 10, 30]);
        assert!(!trace.final_front.is_empty());
    }

    #[test]
    fn parallel_matches_serial_feasibility() {
        let p = table1_problem();
        let cfg = GaConfig { generations: 50, threads: 4, ..GaConfig::default() };
        let front = MooGa::new(cfg).solve(&p);
        assert!(!front.is_empty());
        use crate::problem::MooProblem;
        for s in front.solutions() {
            assert!(p.is_feasible(&s.chromosome));
        }
    }

    #[test]
    fn archive_front_is_at_least_as_good() {
        use crate::quality::hypervolume_2d;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..4 {
            let window: Vec<JobDemand> = (0..18)
                .map(|_| {
                    JobDemand::cpu_bb(rng.random_range(8..200), rng.random_range(0.0..30_000.0))
                })
                .collect();
            let p = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(500, 80_000.0));
            let solve = |archive: bool| {
                let cfg = GaConfig {
                    generations: 80,
                    seed: 2_000 + trial,
                    archive,
                    ..GaConfig::default()
                };
                MooGa::new(cfg).solve(&p)
            };
            let plain = solve(false);
            let archived = solve(true);
            assert!(archived.is_mutually_nondominated());
            // The archive contains everything the final generation saw, so
            // its hypervolume can never be smaller.
            let hv_plain = hypervolume_2d(&plain, 0.0, 0.0);
            let hv_arch = hypervolume_2d(&archived, 0.0, 0.0);
            assert!(
                hv_arch >= hv_plain - 1e-9,
                "trial {trial}: archive lost quality {hv_plain} -> {hv_arch}"
            );
        }
    }

    #[test]
    fn saturation_improves_or_matches_front_quality() {
        use crate::quality::hypervolume_2d;
        // On random windows the saturated GA's hypervolume should never be
        // worse than the plain GA's under the same seed/budget.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        for trial in 0..5 {
            let window: Vec<JobDemand> = (0..20)
                .map(|_| {
                    JobDemand::cpu_bb(rng.random_range(8..200), rng.random_range(0.0..30_000.0))
                })
                .collect();
            let p = KnapsackMooProblem::new(window, ResourceModel::cpu_bb(500, 80_000.0));
            let solve = |saturate: bool| {
                let cfg = GaConfig {
                    generations: 100,
                    seed: 1000 + trial,
                    saturate,
                    ..GaConfig::default()
                };
                hypervolume_2d(&MooGa::new(cfg).solve(&p), 0.0, 0.0)
            };
            let plain = solve(false);
            let polished = solve(true);
            assert!(
                polished >= plain * 0.999,
                "trial {trial}: saturation regressed hypervolume {plain} -> {polished}"
            );
        }
    }

    #[test]
    fn crowding_mode_finds_table1_pareto_set() {
        let cfg = GaConfig {
            generations: 500,
            seed: 42,
            mode: SolveMode::ParetoCrowding,
            ..GaConfig::default()
        };
        let mut front = MooGa::new(cfg).solve(&table1_problem());
        front.sort_by_first_objective();
        let points: Vec<Vec<f64>> = front.objective_vectors().map(|v| v.to_vec()).collect();
        assert!(points.contains(&vec![100.0, 20_000.0]), "{points:?}");
        assert!(points.contains(&vec![80.0, 90_000.0]), "{points:?}");
        assert!(front.is_mutually_nondominated());
    }

    #[test]
    fn crowding_mode_solutions_feasible() {
        let p = table1_problem();
        let cfg =
            GaConfig { generations: 100, mode: SolveMode::ParetoCrowding, ..GaConfig::default() };
        let front = MooGa::new(cfg).solve(&p);
        use crate::problem::MooProblem;
        for s in front.solutions() {
            assert!(p.is_feasible(&s.chromosome));
        }
    }

    #[test]
    fn every_bred_chromosome_is_one_evaluation_or_one_memo_hit() {
        let p = table1_problem();
        // Odd `P` drops the last crossover's second child, which is never
        // looked up; the threaded path counts exactly like the serial one.
        for (population, threads) in [(20, 1), (7, 1), (7, 2)] {
            let cfg = GaConfig { population, generations: 40, threads, ..GaConfig::default() };
            let t = MooGa::new(cfg).solve_traced(&p, &[]);
            assert_eq!(t.evaluations + t.memo_hits, (population * 41) as u64);
            // Five genes: at most 32 distinct pre-repair chromosomes.
            assert!(t.evaluations >= 1 && t.evaluations <= 32, "{t:?}");
        }
        let empty = KnapsackMooProblem::new(vec![], ResourceModel::cpu_bb(10, 10.0));
        let t = MooGa::new(GaConfig::default()).solve_traced(&empty, &[]);
        assert_eq!((t.evaluations, t.memo_hits), (0, 0));
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            GaConfig { population: 1, ..GaConfig::default() }.validate(),
            Err(GaConfigError::PopulationTooSmall(1))
        );
        assert_eq!(
            GaConfig { mutation_rate: 1.5, ..GaConfig::default() }.validate(),
            Err(GaConfigError::MutationRateOutOfRange(1.5))
        );
        assert_eq!(
            GaConfig { threads: 0, ..GaConfig::default() }.validate(),
            Err(GaConfigError::ZeroThreads)
        );
        assert_eq!(
            GaConfig { mode: SolveMode::Scalar(vec![]), ..GaConfig::default() }.validate(),
            Err(GaConfigError::EmptyScalarWeights)
        );
        assert!(GaConfig::default().validate().is_ok());
        // Typed errors are real std errors with stable messages.
        let boxed: Box<dyn std::error::Error> = Box::new(GaConfigError::ZeroThreads);
        assert_eq!(boxed.to_string(), "threads must be >= 1");
    }
}
