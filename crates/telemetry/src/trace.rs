//! Causal span trees: flame-style wall-clock attribution with explicit
//! parent/child structure.
//!
//! The controller's [`PhaseProfile`](crate::PhaseProfile) answers "how
//! long does each hot phase take?", but it is flat — it cannot say where
//! an *epoch's* wall-clock went across the fleet loop's phases (pump vs.
//! drain vs. handoff vs. checkpoint/restore). A [`SpanTree`] holds that
//! structure: every node has a label, a duration in seconds, and an
//! optional parent, and [`SpanTree::render`] prints the tree with a
//! synthetic `(other)` row per parent so children always sum *exactly*
//! to the measured parent time.
//!
//! Determinism: the tree's **structure** (node labels, parent/child
//! edges, ordering) is a pure function of the run and is identical at
//! any thread count; the **durations** are wall-clock and vary run to
//! run, exactly like `PhaseProfile`. Nothing in a span tree may flow
//! back into a scheduling or placement decision.

use std::fmt::Write as _;

use crate::span::{Phase, PhaseProfile};

/// Handle to one node of a [`SpanTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq)]
struct SpanNode {
    label: String,
    parent: Option<usize>,
    seconds: f64,
}

/// A tree of labelled wall-clock spans (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
}

impl SpanTree {
    /// An empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, label: String, parent: Option<usize>, seconds: f64) -> SpanId {
        self.nodes.push(SpanNode {
            label,
            parent,
            seconds,
        });
        SpanId(self.nodes.len() - 1)
    }

    /// Number of spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a root span (no parent) with an initial duration.
    pub fn root(&mut self, label: impl Into<String>, seconds: f64) -> SpanId {
        self.push(label.into(), None, seconds)
    }

    /// Adds a child span under `parent` with an initial duration.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `parent` does not belong to this tree.
    pub fn child(&mut self, parent: SpanId, label: impl Into<String>, seconds: f64) -> SpanId {
        debug_assert!(parent.0 < self.nodes.len(), "parent span exists");
        self.push(label.into(), Some(parent.0), seconds)
    }

    /// Adds `seconds` to the child of `parent` labelled `label`,
    /// creating the child (after any existing children of `parent`) if
    /// it does not exist yet. This is the accumulation entry point for
    /// phases that run many times per parent (e.g. one drain per
    /// backpressure round).
    pub fn accumulate(&mut self, parent: SpanId, label: &str, seconds: f64) -> SpanId {
        let found = self
            .nodes
            .iter()
            .position(|n| n.parent == Some(parent.0) && n.label == label);
        match found {
            Some(at) => {
                self.nodes[at].seconds += seconds;
                SpanId(at)
            }
            None => self.push(label.to_string(), Some(parent.0), seconds),
        }
    }

    /// Overwrites a span's measured duration (closing a span whose
    /// total was measured by an outer stopwatch).
    pub fn set_seconds(&mut self, id: SpanId, seconds: f64) {
        self.nodes[id.0].seconds = seconds;
    }

    /// A span's measured duration, seconds.
    #[must_use]
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.nodes[id.0].seconds
    }

    /// A span's label.
    #[must_use]
    pub fn label(&self, id: SpanId) -> &str {
        &self.nodes[id.0].label
    }

    /// Direct children of `id`, insertion order.
    #[must_use]
    pub fn children(&self, id: SpanId) -> Vec<SpanId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == Some(id.0))
            .map(|(i, _)| SpanId(i))
            .collect()
    }

    /// Root spans (no parent), insertion order.
    #[must_use]
    pub fn roots(&self) -> Vec<SpanId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent.is_none())
            .map(|(i, _)| SpanId(i))
            .collect()
    }

    /// The part of `id`'s measured time not covered by its children
    /// (clamped at zero) — rendered as the `(other)` row. Zero for a
    /// leaf.
    #[must_use]
    pub fn residual(&self, id: SpanId) -> f64 {
        let covered: f64 = self
            .children(id)
            .iter()
            .map(|child| self.seconds(*child))
            .sum();
        (self.seconds(id) - covered).max(0.0)
    }

    /// Grafts a [`PhaseProfile`]'s per-phase totals as children of
    /// `parent`, one child per phase that recorded at least one span —
    /// the bridge from the fleet-level tree down to the controller's
    /// hot-phase attribution.
    pub fn graft_profile(&mut self, parent: SpanId, profile: &PhaseProfile) {
        for phase in Phase::ALL {
            let summary = profile.summary(phase);
            if summary.count() == 0 {
                continue;
            }
            let total: f64 = summary.samples().as_slice().iter().sum();
            self.accumulate(parent, phase.name(), total);
        }
    }

    /// A flame-style attribution table: one row per span, indented by
    /// depth, with milliseconds and the share of the parent's time; a
    /// synthetic `(other)` row absorbs each parent's residual so child
    /// rows sum exactly to the parent's measured time. Structure is
    /// deterministic; the numbers are wall-clock.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<48} {:>12} {:>8}", "span", "ms", "parent%");
        for root in self.roots() {
            self.render_node(&mut out, root, 0, None);
        }
        out
    }

    fn render_node(&self, out: &mut String, id: SpanId, depth: usize, parent_seconds: Option<f64>) {
        let seconds = self.seconds(id);
        let label = format!("{}{}", "  ".repeat(depth), self.label(id));
        let share = match parent_seconds {
            Some(p) if p > 0.0 => format!("{:.1}%", 100.0 * seconds / p),
            _ => "-".to_string(),
        };
        let _ = writeln!(out, "{:<48} {:>12.3} {:>8}", label, seconds * 1e3, share);
        let children = self.children(id);
        if children.is_empty() {
            return;
        }
        for child in &children {
            self.render_node(out, *child, depth + 1, Some(seconds));
        }
        let residual = self.residual(id);
        let label = format!("{}(other)", "  ".repeat(depth + 1));
        let share = if seconds > 0.0 {
            format!("{:.1}%", 100.0 * residual / seconds)
        } else {
            "-".to_string()
        };
        let _ = writeln!(out, "{:<48} {:>12.3} {:>8}", label, residual * 1e3, share);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_reuses_children_by_label() {
        let mut tree = SpanTree::new();
        let root = tree.root("run", 1.0);
        let a = tree.accumulate(root, "pump", 0.1);
        let b = tree.accumulate(root, "pump", 0.2);
        assert_eq!(a, b);
        assert!((tree.seconds(a) - 0.3).abs() < 1e-12);
        tree.accumulate(root, "drain", 0.5);
        assert_eq!(tree.children(root).len(), 2);
    }

    #[test]
    fn residual_absorbs_uncovered_parent_time() {
        let mut tree = SpanTree::new();
        let root = tree.root("epoch", 1.0);
        tree.child(root, "pump", 0.25);
        tree.child(root, "drain", 0.5);
        assert!((tree.residual(root) - 0.25).abs() < 1e-12);
        // Children sum exactly to the measured parent time with the
        // residual included.
        let covered: f64 = tree
            .children(root)
            .iter()
            .map(|c| tree.seconds(*c))
            .sum::<f64>()
            + tree.residual(root);
        assert!((covered - tree.seconds(root)).abs() < 1e-12);
    }

    #[test]
    fn residual_clamps_when_children_overrun() {
        let mut tree = SpanTree::new();
        let root = tree.root("epoch", 0.1);
        tree.child(root, "drain", 0.2);
        assert_eq!(tree.residual(root), 0.0);
    }

    #[test]
    fn graft_profile_adds_one_child_per_recorded_phase() {
        let mut profile = PhaseProfile::new();
        profile.record(Phase::RckkPlan, 0.002);
        profile.record(Phase::RckkPlan, 0.003);
        profile.record(Phase::RetryDrain, 0.001);
        let mut tree = SpanTree::new();
        let root = tree.root("controller", 0.0);
        tree.graft_profile(root, &profile);
        let children = tree.children(root);
        assert_eq!(children.len(), 2);
        assert_eq!(tree.label(children[0]), "rckk-plan");
        assert!((tree.seconds(children[0]) - 0.005).abs() < 1e-12);
    }

    #[test]
    fn render_indents_and_includes_other_rows() {
        let mut tree = SpanTree::new();
        let root = tree.root("fleet run", 1.0);
        let epoch = tree.child(root, "epoch 0", 0.6);
        tree.child(epoch, "pump", 0.1);
        let table = tree.render();
        assert!(table.contains("fleet run"));
        assert!(table.contains("  epoch 0"));
        assert!(table.contains("    pump"));
        assert_eq!(table.matches("(other)").count(), 2, "{table}");
        assert!(table.lines().next().unwrap().contains("parent%"));
    }

    #[test]
    fn structure_is_deterministic() {
        let build = || {
            let mut tree = SpanTree::new();
            let root = tree.root("run", 2.0);
            for e in 0..3 {
                let epoch = tree.child(root, format!("epoch {e}"), 0.5);
                tree.accumulate(epoch, "pump", 0.1);
                tree.accumulate(epoch, "drain shard 0", 0.2);
            }
            tree
        };
        assert_eq!(build(), build());
    }
}
