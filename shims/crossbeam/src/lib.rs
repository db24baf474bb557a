//! Offline stand-in for the `crossbeam` scoped-thread and channel APIs,
//! built on `std::thread::scope` and `std::sync::mpsc`.
//!
//! Two surfaces are provided — the two entry points the simulation
//! crates use:
//!
//! * [`thread::scope`] — scoped fan-out over borrowed data. As in
//!   crossbeam, `scope` returns `Err` when any spawned thread panicked
//!   instead of propagating the panic.
//! * [`channel`] — `unbounded`/`bounded` MPSC channels with crossbeam's
//!   `Sender`/`Receiver` names, used by the sharded replay engine to
//!   stream work to its partition workers.

/// Scoped threads (the `crossbeam::thread` module surface).
pub mod thread {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The error payload of a panicked scope.
    pub type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

    /// A scope handle; `spawn` borrows data living at least as long as
    /// the enclosing [`scope`] call.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope again
        /// (crossbeam's signature) so it can spawn nested work.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f` with a scope; joins every spawned thread before
    /// returning. Returns `Err` if any spawned thread (or `f` itself)
    /// panicked.
    ///
    /// # Errors
    ///
    /// The boxed panic payload of the first observed panic.
    pub fn scope<'env, F, R>(f: F) -> Result<R, PanicPayload>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

/// MPSC channels (the `crossbeam::channel` module surface).
pub mod channel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    /// The sending half of a channel. Cloneable; all clones feed the same
    /// receiver.
    pub struct Sender<T> {
        inner: SenderKind<T>,
        queued: Arc<AtomicUsize>,
    }

    enum SenderKind<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: match &self.inner {
                    SenderKind::Unbounded(s) => SenderKind::Unbounded(s.clone()),
                    SenderKind::Bounded(s) => SenderKind::Bounded(s.clone()),
                },
                queued: Arc::clone(&self.queued),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a value, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// Returns the value back if the receiving half was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.inner {
                SenderKind::Unbounded(s) => s.send(value),
                SenderKind::Bounded(s) => s.send(value),
            }?;
            self.queued.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        /// The number of messages currently queued in the channel
        /// (crossbeam's `Sender::len`). A racy snapshot, like the
        /// original: the receiver may drain concurrently.
        pub fn len(&self) -> usize {
            self.queued.load(Ordering::Relaxed)
        }

        /// Whether the channel holds no queued messages right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
        queued: Arc<AtomicUsize>,
    }

    impl<T> Receiver<T> {
        fn note_taken(&self) {
            // Saturating at zero: a send's increment may land after the
            // matched receive on another thread observes the value.
            let _ = self
                .queued
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        }

        /// Blocks until a value arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once every sender is dropped and the
        /// channel is drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            let value = self.inner.recv()?;
            self.note_taken();
            Ok(value)
        }

        /// Returns a pending value without blocking.
        ///
        /// # Errors
        ///
        /// Returns [`TryRecvError::Empty`] when no value is waiting, or
        /// [`TryRecvError::Disconnected`] once every sender is dropped
        /// and the channel is drained.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let value = self.inner.try_recv()?;
            self.note_taken();
            Ok(value)
        }

        /// Iterates over received values until the channel closes.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }
    }

    /// Creates a channel with no capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        let queued = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                inner: SenderKind::Unbounded(tx),
                queued: Arc::clone(&queued),
            },
            Receiver { inner: rx, queued },
        )
    }

    /// Creates a channel that holds at most `cap` in-flight values;
    /// senders block when it is full (backpressure).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        let queued = Arc::new(AtomicUsize::new(0));
        (
            Sender {
                inner: SenderKind::Bounded(tx),
                queued: Arc::clone(&queued),
            },
            Receiver { inner: rx, queued },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::{channel, thread};

    #[test]
    fn scope_joins_borrowing_threads() {
        let mut counts = vec![0u64; 4];
        thread::scope(|scope| {
            for c in &mut counts {
                scope.spawn(move |_| {
                    *c = 7;
                });
            }
        })
        .expect("no panics");
        assert_eq!(counts, vec![7, 7, 7, 7]);
    }

    #[test]
    fn panicking_worker_surfaces_as_err() {
        let result = thread::scope(|scope| {
            scope.spawn(|_| panic!("worker down"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn unbounded_channel_carries_values_across_threads() {
        let (tx, rx) = channel::unbounded::<u64>();
        thread::scope(|scope| {
            let tx2 = tx.clone();
            scope.spawn(move |_| {
                for i in 0..10 {
                    tx2.send(i).unwrap();
                }
            });
            drop(tx);
            let sum: u64 = rx.iter().sum();
            assert_eq!(sum, 45);
        })
        .expect("no panics");
    }

    #[test]
    fn bounded_channel_applies_backpressure_and_delivers_in_order() {
        let (tx, rx) = channel::bounded::<u32>(2);
        thread::scope(|scope| {
            scope.spawn(move |_| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<u32> = rx.iter().collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        })
        .expect("no panics");
    }

    #[test]
    fn sender_len_tracks_queue_depth() {
        let (tx, rx) = channel::bounded::<u8>(4);
        assert_eq!(tx.len(), 0);
        assert!(tx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(tx.clone().len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.len(), 1);
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(tx.len(), 0);
        assert!(rx.try_recv().is_err());
        assert_eq!(tx.len(), 0);
    }

    #[test]
    fn receiver_reports_disconnect() {
        let (tx, rx) = channel::unbounded::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(matches!(
            rx.try_recv(),
            Err(channel::TryRecvError::Disconnected)
        ));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn nested_spawn_compiles_and_runs() {
        let flag = std::sync::atomic::AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|inner| {
                inner.spawn(|_| flag.store(true, std::sync::atomic::Ordering::SeqCst));
            });
        })
        .expect("no panics");
        assert!(flag.load(std::sync::atomic::Ordering::SeqCst));
    }
}
