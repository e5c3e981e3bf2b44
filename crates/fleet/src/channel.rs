//! Bounded event channels between trace streams and controllers.
//!
//! One channel sits between each tenant's (lazy) trace stream and its
//! controller, inside the tenant's slot: the slot's pump is the single
//! producer, its drain the single consumer, and the owning shard
//! alternates the two in backpressure rounds on one worker — so the
//! buffer needs capacity bookkeeping, not atomics. The bound is the
//! backpressure mechanism: a full channel stalls its tenant's stream
//! until the round's drain, and because a tenant's rounds depend on its
//! own stream alone, the stall pattern is a pure function of the seed.
//! The bound decides how many rounds an epoch takes, never which events
//! a controller sees or in what order — save an injected chaos
//! duplicate, which is lost when the channel is full.

use std::collections::VecDeque;

use nfv_workload::churn::TimedEvent;

/// A bounded FIFO of timed events for one tenant.
#[derive(Debug)]
pub struct EventChannel {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
}

impl EventChannel {
    /// Creates a channel holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues an event, or hands it back when the channel is full (the
    /// producer parks it as its stream head and retries next round).
    ///
    /// # Errors
    ///
    /// The rejected event itself, unmodified.
    pub fn try_push(&mut self, event: TimedEvent) -> Result<(), TimedEvent> {
        if self.buf.len() >= self.capacity {
            return Err(event);
        }
        self.buf.push_back(event);
        Ok(())
    }

    /// Dequeues the oldest event.
    pub fn pop(&mut self) -> Option<TimedEvent> {
        self.buf.pop_front()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the channel holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the channel is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_workload::churn::ChurnEvent;

    fn tick(time: f64) -> TimedEvent {
        TimedEvent::new(time, ChurnEvent::ReoptimizeTick)
    }

    #[test]
    fn bounded_fifo_preserves_order_and_backpressures() {
        let mut ch = EventChannel::new(2);
        assert!(ch.is_empty());
        assert!(ch.try_push(tick(1.0)).is_ok());
        assert!(ch.try_push(tick(2.0)).is_ok());
        assert!(ch.is_full());
        // The rejected event comes back intact.
        let bounced = ch.try_push(tick(3.0)).unwrap_err();
        assert_eq!(bounced.time(), 3.0);
        assert_eq!(ch.pop().unwrap().time(), 1.0);
        assert!(ch.try_push(bounced).is_ok());
        assert_eq!(ch.pop().unwrap().time(), 2.0);
        assert_eq!(ch.pop().unwrap().time(), 3.0);
        assert!(ch.pop().is_none());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ch = EventChannel::new(0);
        assert_eq!(ch.capacity(), 1);
        assert!(ch.try_push(tick(0.0)).is_ok());
        assert!(ch.is_full());
    }
}
