//! Mark/rewind against a replay oracle: a session rewound to its live
//! mark must equal a fresh session fed only the operations before the
//! mark — journal, drop counts, tick series, sequence counter and
//! per-phase span counts — even when the ring and series evicted
//! everything the mark retained. A mark the session cannot honour is
//! refused and changes nothing.

use nfv_model::RequestId;
use nfv_telemetry::{EventKind, Phase, RewindError, Telemetry, TelemetryArtifacts, TickSample};
use proptest::prelude::*;

/// Applies one packed operation: a journal event, a tick sample, or a
/// timing span on one of the phases.
fn apply(tel: &mut Telemetry, word: u64) {
    let payload = word >> 8;
    match word % 4 {
        0 | 1 => tel.emit(payload as f64, payload % 7, || EventKind::Admit {
            request: RequestId::new((payload % 1_000) as u32),
            hops: payload % 3,
        }),
        2 => tel.sample_tick(|| TickSample {
            tick: payload,
            time: payload as f64 * 0.5,
            active: payload % 50,
            instances: 4,
            max_rho: 0.5,
            mean_rho: 0.25,
            balanced_latency: 0.01,
            retry_backlog: payload % 3,
            nodes_in_service: 2,
            nodes_total: 2,
        }),
        _ => {
            let token = tel.begin();
            tel.end(Phase::ALL[(payload % 6) as usize], token);
        }
    }
}

/// Operations that overflow both bounded logs by one whole capacity.
fn overflow(tel: &mut Telemetry, events: usize, samples: usize) {
    for i in 0..=events as u64 {
        apply(tel, (i << 8) | 1);
    }
    for i in 0..=samples as u64 {
        apply(tel, (i << 8) | 2);
    }
}

fn session(events: usize, samples: usize, ops: &[u64]) -> Telemetry {
    let mut tel = Telemetry::with_capacity(events, samples);
    for &word in ops {
        apply(&mut tel, word);
    }
    tel
}

/// Closes both sessions after one identical probe event (whose sequence
/// number exposes the counter) and compares everything but the span
/// durations, which are wall-clock.
fn assert_same(subject: Telemetry, reference: Telemetry) {
    let close = |mut tel: Telemetry| -> TelemetryArtifacts {
        tel.emit(-1.0, 0, || EventKind::NodeUp {
            node: nfv_model::NodeId::new(0),
            vnfs_restored: 0,
        });
        tel.finish()
    };
    let (got, want) = (close(subject), close(reference));
    assert_eq!(got.events, want.events, "journal and sequence numbers");
    assert_eq!(got.dropped_events, want.dropped_events, "journal drops");
    assert_eq!(got.series, want.series, "tick series and its drops");
    for phase in Phase::ALL {
        let (a, b) = (got.profile.summary(phase), want.profile.summary(phase));
        assert_eq!(a.count(), b.count(), "{} spans", phase.name());
        assert_eq!(a.samples().len(), b.samples().len(), "{}", phase.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rewind_equals_a_session_that_stopped_at_the_mark(
        before in prop::collection::vec(0u64..u64::MAX, 0..40),
        after in prop::collection::vec(0u64..u64::MAX, 0..40),
        again in prop::collection::vec(0u64..u64::MAX, 0..40),
        events in 1usize..6,
        samples in 1usize..6,
    ) {
        // Rewound once.
        let mut once = session(events, samples, &before);
        let mark = once.mark();
        for &word in &after {
            apply(&mut once, word);
        }
        overflow(&mut once, events, samples);
        prop_assert_eq!(once.rewind(&mark), Ok(()));
        assert_same(once, session(events, samples, &before));

        // Rewound, run on past the capacity again, rewound again.
        let mut twice = session(events, samples, &before);
        let mark = twice.mark();
        for &word in &after {
            apply(&mut twice, word);
        }
        overflow(&mut twice, events, samples);
        prop_assert_eq!(twice.rewind(&mark), Ok(()));
        for &word in &again {
            apply(&mut twice, word);
        }
        overflow(&mut twice, events, samples);
        prop_assert_eq!(twice.rewind(&mark), Ok(()));
        assert_same(twice, session(events, samples, &before));
    }

    #[test]
    fn marks_the_session_cannot_honour_are_refused(
        before in prop::collection::vec(0u64..u64::MAX, 0..40),
        after in prop::collection::vec(0u64..u64::MAX, 0..40),
        events in 1usize..6,
        samples in 1usize..6,
    ) {
        let mut subject = session(events, samples, &before);
        let superseded = subject.mark();
        for &word in &after {
            apply(&mut subject, word);
        }
        overflow(&mut subject, events, samples);
        let live = subject.mark();
        // Another session's mark: one event further along.
        let mut other = session(events, samples, &before);
        apply(&mut other, 1);
        let foreign = other.mark();
        let disabled = Telemetry::disabled().mark();
        for refused in [superseded, foreign, disabled] {
            prop_assert_eq!(subject.rewind(&refused), Err(RewindError::NotLive));
        }
        // The refusals changed nothing: the live mark still rewinds to
        // the state reached through every operation.
        apply(&mut subject, 1);
        prop_assert_eq!(subject.rewind(&live), Ok(()));
        let mut reference = session(events, samples, &before);
        for &word in &after {
            apply(&mut reference, word);
        }
        overflow(&mut reference, events, samples);
        assert_same(subject, reference);
    }
}
