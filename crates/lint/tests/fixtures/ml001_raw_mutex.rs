// ML001 positive fixture: a raw `Mutex` field takes no part in the lock
// ranking, so the runtime rank checker cannot see its acquisitions.

struct InFlightTable {
    slots: std::sync::Mutex<u32>,
}
