//! Dispatch shape: workers pull the next un-started item from one shared
//! queue, so a slow item never holds back items queued behind it. Under
//! chunk barriers (split into width-sized chunks, join each chunk before
//! starting the next) the slowest item in a chunk gates the whole chunk.

use ion_exec::{Batch, TaskOutcome};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

/// Item 0 blocks until item 3 signals it. With two workers and a shared
/// queue, the second worker runs items 1, 2 and 3 while item 0 waits, so
/// the signal arrives. Under chunk barriers item 3 cannot start before
/// item 0 returns, and item 0 times out instead. The check uses blocking,
/// not timing, so it does not depend on core count.
#[test]
fn blocked_item_does_not_hold_back_later_items() {
    let (tx, rx) = mpsc::channel::<()>();
    let rx = Mutex::new(rx);
    let items: Vec<usize> = (0..4).collect();
    let out = Batch::new()
        .with_width(2)
        .map_ordered(&items, |&i, _| match i {
            0 => rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(5))
                .is_ok(),
            3 => tx.send(()).is_ok(),
            _ => true,
        });
    assert_eq!(out, vec![TaskOutcome::Ok(true); 4]);
}
