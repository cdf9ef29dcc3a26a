// ML001 negative fixture: a `RankedMutex` built with its `lock_rank`
// constant, and a `Condvar` that waits through it. Zero findings expected.

use malleus_core::{lock_rank, RankedMutex};
use std::sync::Condvar;

struct AdmissionGate {
    state: RankedMutex<u32>,
    freed: Condvar,
}

impl AdmissionGate {
    fn new() -> Self {
        Self {
            state: RankedMutex::new(lock_rank::ADMISSION_GATE_STATE, "AdmissionGate.state", 0),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut state = self.state.lock();
        while *state == 0 {
            state = self.state.wait(&self.freed, state);
        }
        *state -= 1;
    }
}
