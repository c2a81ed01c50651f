//! Differential precision attribution: explain *why* one configuration
//! proves fewer assertions than another.
//!
//! [`differential`] takes two runs of the same module — a *better* and a
//! *worse* [`ModuleAnalysis`], each carrying the
//! [`BlameTable`](cai_obs::BlameTable) of its run in its degradation
//! report — diffs the per-procedure assertion verdicts, and joins every
//! regressed fact to the ranked loss events recorded at that procedure's
//! scope. The result
//! reads as a causal report:
//!
//! ```text
//! assert 3 in `big` lost <= widen at big/loop#0 (analyzer/while) under flat policy
//! ```
//!
//! Causes are ranked by how much *more* the worse leg hit the loss row
//! than the better leg (count delta, descending), falling back to the
//! worse leg's absolute count and then the deterministic
//! `(scope, site, domain, kind)` key — the same total order whichever
//! thread count produced the tables.

use cai_obs::{escape_metric_name, BlameTable, LossKind};
use std::fmt;

use crate::engine::ModuleAnalysis;

/// One loss row joined against a regressed assertion, with the count
/// delta between the two legs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameCause {
    /// `/`-joined scope labels from the worse leg (e.g. `big/loop#0`).
    pub scope: String,
    /// The loss site string (e.g. `analyzer/while`).
    pub site: &'static str,
    /// The domain path (e.g. `interp`, `logical.alt`).
    pub domain: String,
    /// Why the facts were lost.
    pub kind: LossKind,
    /// Event count in the worse leg.
    pub worse_count: u64,
    /// Event count in the better leg for the same row (0 if absent).
    pub better_count: u64,
}

impl BlameCause {
    /// `worse_count - better_count`, the differential rank key. Rows the
    /// better leg hit *more* often clamp to 0 — they cannot explain a
    /// regression.
    pub fn delta(&self) -> u64 {
        self.worse_count.saturating_sub(self.better_count)
    }

    fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            r#"{{"scope":"{}","site":"{}","domain":"{}","kind":"{}","delta":{},"worse_count":{},"better_count":{}}}"#,
            escape_metric_name(&self.scope),
            escape_metric_name(self.site),
            escape_metric_name(&self.domain),
            self.kind.as_str(),
            self.delta(),
            self.worse_count,
            self.better_count,
        );
    }
}

/// One assertion the better leg proves and the worse leg does not,
/// joined to its ranked causes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssertRegression {
    /// The procedure the assertion lives in.
    pub proc: String,
    /// The assertion's index within the procedure, in program order.
    pub index: usize,
    /// The asserted fact, rendered.
    pub atom: String,
    /// Loss events at the procedure's scope, most blamed first.
    pub causes: Vec<BlameCause>,
}

impl AssertRegression {
    fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            r#"{{"proc":"{}","index":{},"atom":"{}","causes":["#,
            escape_metric_name(&self.proc),
            self.index,
            escape_metric_name(&self.atom),
        );
        for (i, c) in self.causes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json_into(out);
        }
        out.push_str("]}");
    }
}

/// The differential attribution report for a pair of runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Label for the stronger configuration (e.g. `adaptive policy`).
    pub better_label: String,
    /// Label for the weaker configuration (e.g. `flat policy`).
    pub worse_label: String,
    /// Every assertion verified under the better leg but not the worse,
    /// in module order, each joined to its ranked causes.
    pub regressions: Vec<AssertRegression>,
    /// Assertions the worse leg proves that the better leg does not —
    /// usually 0; nonzero means the legs are not ordered by strength.
    pub inversions: usize,
}

impl DifferentialReport {
    /// Whether the worse leg lost any assertion.
    pub fn is_empty(&self) -> bool {
        self.regressions.is_empty()
    }

    /// A deterministic JSON object:
    /// `{"better":…,"worse":…,"inversions":…,"regressions":[…]}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"better":"{}","worse":"{}","inversions":{},"regressions":["#,
            escape_metric_name(&self.better_label),
            escape_metric_name(&self.worse_label),
            self.inversions,
        );
        for (i, r) in self.regressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.to_json_into(&mut out);
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for DifferentialReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.regressions.is_empty() {
            writeln!(
                f,
                "no assertions regress from `{}` to `{}`",
                self.better_label, self.worse_label
            )?;
        }
        for r in &self.regressions {
            match r.causes.first() {
                Some(c) => writeln!(
                    f,
                    "assert {} in `{}` ({}) lost <= {} at {} ({}) under {} [delta={} worse={} better={}]",
                    r.index,
                    r.proc,
                    r.atom,
                    c.kind,
                    c.scope,
                    c.site,
                    self.worse_label,
                    c.delta(),
                    c.worse_count,
                    c.better_count,
                )?,
                None => writeln!(
                    f,
                    "assert {} in `{}` ({}) lost under {} (no loss events at its scope)",
                    r.index, r.proc, r.atom, self.worse_label,
                )?,
            }
            for c in r.causes.iter().skip(1) {
                writeln!(
                    f,
                    "    also: {} at {} ({}) [delta={} worse={} better={}]",
                    c.kind,
                    c.scope,
                    c.site,
                    c.delta(),
                    c.worse_count,
                    c.better_count,
                )?;
            }
        }
        if self.inversions > 0 {
            writeln!(
                f,
                "warning: {} assertion(s) hold only under `{}` — the legs are not ordered",
                self.inversions, self.worse_label
            )?;
        }
        Ok(())
    }
}

/// Ranks the worse leg's loss rows at `proc`'s scope against the better
/// leg's: count delta descending, then the worse leg's count, then the
/// deterministic key order.
fn causes_for(proc: &str, better: &BlameTable, worse: &BlameTable) -> Vec<BlameCause> {
    let mut causes: Vec<BlameCause> = worse
        .for_scope(proc)
        .into_iter()
        .map(|e| BlameCause {
            better_count: better.count_of(&e),
            worse_count: e.count,
            scope: e.scope,
            site: e.site,
            domain: e.domain,
            kind: e.kind,
        })
        .collect();
    causes.sort_by(|a, b| {
        b.delta()
            .cmp(&a.delta())
            .then(b.worse_count.cmp(&a.worse_count))
            .then_with(|| {
                (&a.scope, a.site, &a.domain, a.kind).cmp(&(&b.scope, b.site, &b.domain, b.kind))
            })
    });
    causes
}

/// Diffs the assertion verdicts of two runs of the same module and joins
/// every regression (verified under `better`, unverified under `worse`)
/// to the ranked loss events at its procedure's scope.
///
/// Procedures are matched by name and assertions by program-order index;
/// a procedure or index present in only one leg is skipped (the module
/// must be the same program for the diff to mean anything). The output
/// is deterministic: module order for regressions, the documented rank
/// order for causes.
pub fn differential(
    better_label: &str,
    better: &ModuleAnalysis,
    worse_label: &str,
    worse: &ModuleAnalysis,
) -> DifferentialReport {
    let mut regressions = Vec::new();
    let mut inversions = 0usize;
    for wr in &worse.reports {
        let Some(br) = better.reports.iter().find(|r| r.name == wr.name) else {
            continue;
        };
        for (index, (b, w)) in br.assertions.iter().zip(&wr.assertions).enumerate() {
            if b.verified && !w.verified {
                regressions.push(AssertRegression {
                    proc: wr.name.clone(),
                    index,
                    atom: b.atom.to_string(),
                    causes: causes_for(
                        &wr.name,
                        &better.degradation.blame,
                        &worse.degradation.blame,
                    ),
                });
            } else if w.verified && !b.verified {
                inversions += 1;
            }
        }
    }
    DifferentialReport {
        better_label: better_label.to_string(),
        worse_label: worse_label.to_string(),
        regressions,
        inversions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ProcReport;
    use crate::summary::Summary;
    use cai_interp::AssertionOutcome;
    use cai_term::{Atom, Term};

    fn report(name: &str, verdicts: &[bool]) -> ProcReport {
        ProcReport {
            name: name.to_string(),
            summary: Summary::top(Vec::new()),
            assertions: verdicts
                .iter()
                .map(|&verified| AssertionOutcome {
                    atom: Atom::le(Term::var_named("x"), Term::int(0)),
                    verified,
                })
                .collect(),
            diverged: false,
            quarantined: false,
        }
    }

    /// A run with `reports` whose blame table holds `rows` of
    /// `(scope, site, kind, count)`.
    fn analysis(
        reports: Vec<ProcReport>,
        rows: &[(&str, &'static str, LossKind, u64)],
    ) -> ModuleAnalysis {
        let mut a = ModuleAnalysis {
            reports,
            reused: 0,
            recomputed: 0,
            degradation: Default::default(),
            ctx: Default::default(),
            supervision: Default::default(),
        };
        for &(scope, site, kind, count) in rows {
            for _ in 0..count {
                a.degradation
                    .blame
                    .record(scope.to_string(), site, "interp", kind, 0, 0);
            }
        }
        a
    }

    #[test]
    fn regressions_join_causes_ranked_by_delta() {
        let better = analysis(
            vec![report("f", &[true, true])],
            &[
                ("f", "driver/context", LossKind::CtxCapOverflow, 5),
                ("f/loop#0", "analyzer/while", LossKind::Widen, 1),
            ],
        );
        let worse = analysis(
            vec![report("f", &[true, false])],
            &[
                // Same count both legs: delta 0, ranks below the widen row
                // despite the higher absolute count.
                ("f", "driver/context", LossKind::CtxCapOverflow, 5),
                ("f/loop#0", "analyzer/while", LossKind::Widen, 4),
            ],
        );
        let d = differential("adaptive policy", &better, "flat policy", &worse);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.inversions, 0);
        let r = &d.regressions[0];
        assert_eq!((r.proc.as_str(), r.index), ("f", 1));
        assert_eq!(r.causes.len(), 2);
        assert_eq!(r.causes[0].site, "analyzer/while");
        assert_eq!(r.causes[0].delta(), 3);
        assert_eq!(r.causes[1].delta(), 0);
        let line = d.to_string();
        assert!(
            line.contains("assert 1 in `f`") && line.contains("under flat policy"),
            "{line}"
        );
        let json = d.to_json();
        assert!(json.contains(r#""worse":"flat policy""#), "{json}");
        assert!(json.contains(r#""delta":3"#), "{json}");
    }

    #[test]
    fn empty_diff_and_inversions_are_reported() {
        let a = analysis(vec![report("g", &[false, true])], &[]);
        let b = analysis(vec![report("g", &[true, true])], &[]);
        let d = differential("better", &a, "worse", &b);
        assert!(d.is_empty());
        assert_eq!(d.inversions, 1);
        assert!(d.to_string().contains("not ordered"), "{d}");
    }
}
