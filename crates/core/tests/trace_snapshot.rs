//! Span-structure tests for the `kcore-obs` integration: the span tree
//! of one fixed run per round-loop configuration (fused unit, threshold,
//! snapshot, recompute, offline) is pinned (names, nesting, counts —
//! never timings), and the trace's round/subround span counts are
//! required to agree exactly with the engine's own `RunStats`
//! accounting. `RunStats::rounds` counts every level; the loop visits
//! only non-empty ones, each of which peels at least one subround, so
//! the `round` span count is the number of non-zero
//! `subrounds_per_round` entries.
//!
//! Tests here force the trace level programmatically and use
//! `exact_config`, so the `KCORE_TRACE` / `KCORE_TECHNIQUES` CI matrix
//! legs cannot change what gets recorded. Each test runs its engine in
//! a dedicated thread and scopes assertions to that thread's trace id;
//! a shared lock serializes them because the recorder is process-global.

use kcore::{Config, Decomposition, Sampling, Techniques};
use kcore_graph::gen;
use kcore_obs::{set_level, Level, TraceReport};
use kcore_parallel::RunStats;

/// Rounds the loop visited: the levels that peeled at least one
/// subround (skipped levels are recorded as zero-subround rounds).
fn visited_rounds(stats: &RunStats) -> u64 {
    stats.subrounds_per_round.iter().filter(|&&s| s > 0).count() as u64
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` in a fresh thread with spans enabled and returns its result
/// plus the trace id the thread recorded under.
fn traced<T: Send>(f: impl FnOnce() -> T + Send) -> (T, u32) {
    set_level(Level::Spans);
    kcore_obs::reset();
    std::thread::scope(|s| {
        s.spawn(|| {
            let out = f();
            let tid = TraceReport::current_tid().expect("the run must have recorded spans");
            (out, tid)
        })
        .join()
        .unwrap()
    })
}

#[test]
fn span_tree_of_a_fixed_minbucket_kcore_run_is_pinned() {
    let _g = serial();
    let g = gen::barabasi_albert(300, 3, 7);
    let (result, tid) = traced(|| Decomposition::kcore(&g).exact_config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);

    let stats = result.stats();
    // The default MinBucket unit driver emits one `round` (and one
    // bucket drain) per visited level, one `subround` (and one refile)
    // per frontier wave — exactly the quantities RunStats counts. Every
    // vertex of this graph has coreness 3, so levels 0–2 are jumped
    // over: four rounds, one visited. The
    // `KCORE_BACKEND=compressed` CI leg re-encodes the graph inside the
    // facade, which is visible as one extra `build.encode` root — proof
    // the override actually reaches `Decomposition::run`.
    // Read the variable here rather than through the library, so the
    // check does not depend on the parser it exercises.
    let compressed = std::env::var("KCORE_BACKEND").is_ok_and(|v| v.trim() == "compressed");
    let encode = if compressed { "build.encode x1\n" } else { "" };
    let expected = format!(
        "{encode}\
         k-core x1\n\
         \x20 round x{rounds}\n\
         \x20   bucket.drain x{rounds}\n\
         \x20   subround x{subrounds}\n\
         \x20     frontier.refile x{subrounds}\n",
        rounds = visited_rounds(stats),
        subrounds = stats.subrounds,
    );
    assert_eq!(report.span_tree(tid), expected);
    assert_eq!((stats.rounds, visited_rounds(stats)), (4, 1));
}

#[test]
fn ba3000_span_counts_match_run_stats_exactly() {
    let _g = serial();
    // The acceptance instance: a ba-3000 k-core run under
    // KCORE_TRACE=spans must produce a Chrome trace whose round and
    // subround span counts equal the visited rounds / RunStats.subrounds.
    let g = gen::barabasi_albert(3000, 4, 42);
    let (result, _tid) = traced(|| Decomposition::kcore(&g).exact_config(Config::default()).run());
    let report = TraceReport::capture();
    set_level(Level::Off);

    let stats = result.stats();
    let visited = visited_rounds(stats);
    assert!(visited > 0 && stats.subrounds > 0);
    assert_eq!(report.span_count("round"), visited, "round spans vs visited rounds");
    assert_eq!(
        report.span_count("subround"),
        stats.subrounds,
        "subround spans vs RunStats.subrounds"
    );
    assert_eq!(report.dropped, 0, "a ba-3000 run must fit the ring");

    // The same counts must survive the Chrome export verbatim.
    let chrome = report.chrome_trace();
    let begins =
        |name: &str| chrome.matches(&format!("{{\"name\":\"{name}\",\"ph\":\"B\"")).count();
    assert_eq!(begins("round") as u64, visited);
    assert_eq!(begins("subround") as u64, stats.subrounds);

    // publish_metrics ran inside the engine, so the gauges mirror the
    // same numbers in the unified metrics document.
    let gauge = |name: &str| {
        report.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_else(|| {
            panic!("gauge {name} missing from {:?}", report.gauges);
        })
    };
    assert_eq!(gauge("run.rounds"), stats.rounds);
    assert_eq!(gauge("run.subrounds"), stats.subrounds);
}

#[test]
fn sampling_visits_every_level() {
    let _g = serial();
    // A sample-mode stored priority can be a stale upper bound, so a
    // round loop with sampling on never jumps: one `round` span per
    // level, empty ones included.
    let g = gen::barabasi_albert(3000, 4, 42);
    let techniques =
        Techniques { sampling: Some(Sampling::with_threshold(16)), ..Techniques::default() };
    let (result, _tid) =
        traced(|| Decomposition::kcore(&g).exact_config(Config::with_techniques(techniques)).run());
    let report = TraceReport::capture();
    set_level(Level::Off);

    let stats = result.stats();
    assert!(stats.sampled_vertices > 0, "the threshold must put hubs in sample mode");
    assert!(visited_rounds(stats) < stats.rounds, "levels 0-3 peel nothing");
    assert_eq!(report.span_count("round"), stats.rounds, "no level may be skipped");
}

#[test]
fn offline_driver_shows_gather_histogram_apply_children() {
    let _g = serial();
    let g = gen::barabasi_albert(400, 3, 11);
    let config = Config::with_techniques(kcore::Techniques::offline());
    let (result, tid) = traced(|| Decomposition::kcore(&g).exact_config(config).run());
    let report = TraceReport::capture();
    set_level(Level::Off);

    let stats = result.stats();
    let tree = report.span_tree(tid);
    // Every offline subround runs the three bulk phases once, as
    // visible children of `subround`.
    for phase in ["offline.gather", "offline.histogram", "offline.apply"] {
        let line = format!("{phase} x{}", stats.subrounds);
        assert!(tree.contains(&line), "expected {line:?} in tree:\n{tree}");
    }
    assert_eq!(report.span_count("subround"), stats.subrounds);
}

/// Runs `f` traced and returns the calling thread's span tree.
fn tree_of<T: Send>(f: impl FnOnce() -> T + Send) -> String {
    let _g = serial();
    let (_, tid) = traced(f);
    let tree = TraceReport::capture().span_tree(tid);
    set_level(Level::Off);
    tree
}

/// The triangle setup every k-truss run performs before its peel.
const TRI_BUILD: &str = "tri.build x1\n\
                         \x20 tri.orient x1\n\
                         \x20 tri.supports x1\n\
                         \x20 tri.cache x1\n";

#[test]
fn span_tree_of_a_fixed_threshold_approx_densest_run_is_pinned() {
    // Threshold rounds scan the live aggregates before their bulk
    // drain; the cascade then runs ordinary fused subrounds.
    let g = gen::planted_core(300, 2, 50, 21);
    let tree =
        tree_of(|| Decomposition::approx_densest(&g, 0.5).exact_config(Config::default()).run());
    let expected = "approx-densest x1\n\
                    \x20 round x2\n\
                    \x20   aggregates x2\n\
                    \x20   bucket.drain x2\n\
                    \x20   subround x3\n\
                    \x20     frontier.refile x3\n";
    assert_eq!(tree, expected);
}

#[test]
fn span_tree_of_a_fixed_snapshot_ktruss_run_is_pinned() {
    let g = gen::barabasi_albert(300, 3, 7);
    let tree = tree_of(|| Decomposition::ktruss(&g).exact_config(Config::default()).run());
    let expected = format!(
        "{TRI_BUILD}\
         k-truss x1\n\
         \x20 round x3\n\
         \x20   bucket.drain x3\n\
         \x20   subround x6\n\
         \x20     settle x6\n\
         \x20     rule x6\n\
         \x20     frontier.refile x6\n"
    );
    assert_eq!(tree, expected);
}

#[test]
fn span_tree_of_a_fixed_recompute_khcore_run_is_pinned() {
    // Only the levels some priority actually hits are visited: the
    // other 44 of the 69 levels are jumped over.
    let g = gen::barabasi_albert(300, 3, 7);
    let tree = tree_of(|| Decomposition::khcore(&g, 2).exact_config(Config::default()).run());
    let expected = "kh-core x1\n\
                    \x20 round x25\n\
                    \x20   bucket.drain x25\n\
                    \x20   subround x68\n\
                    \x20     settle x68\n\
                    \x20     recompute x68\n\
                    \x20     frontier.refile x68\n";
    assert_eq!(tree, expected);
}

#[test]
fn span_tree_of_a_fixed_offline_ktruss_run_is_pinned() {
    // The offline step hands its apply output straight to the next
    // subround: no hash bag, so no refile span.
    let g = gen::barabasi_albert(300, 3, 7);
    let config = Config::with_techniques(kcore::Techniques::offline());
    let tree = tree_of(|| Decomposition::ktruss(&g).exact_config(config).run());
    let expected = format!(
        "{TRI_BUILD}\
         k-truss x1\n\
         \x20 round x3\n\
         \x20   bucket.drain x3\n\
         \x20   subround x6\n\
         \x20     settle x6\n\
         \x20     offline.gather x6\n\
         \x20     offline.histogram x6\n\
         \x20     offline.apply x6\n"
    );
    assert_eq!(tree, expected);
}
