//! Roundtrip proptests over every wire-encodable planner type — including
//! lattice-bearing `PlanOutcome`s — plus malformed-frame tests proving the
//! decoder fails with *typed* `WireError`s (never a panic, never an
//! unbounded allocation) on truncated, oversized, unknown-version and
//! unknown-tag input.

use malleus_cluster::{ClusterSnapshot, GpuId};
use malleus_core::{
    BackendId, LatticeEntry, Parallelism, ParallelizationPlan, PipelinePlan, PlanError,
    PlanOutcome, PlanTiming, PlannedOutcome, PlannerConfig, ScoredLattice, StagePlan, TpGroup,
};
use malleus_model::{HardwareParams, MemoryModel, ModelSpec, ProfiledCoefficients};
use malleus_wire::{
    from_bytes, read_frame, read_frame_opt, to_bytes, write_frame, WireError,
    DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN, FRAME_MAGIC, WIRE_VERSION,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Small deterministic generator: the proptest shim has no `any::<T>()`, so
/// each case draws a `u64` seed and expands it through splitmix64 into
/// arbitrary-but-reproducible structured values.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Any non-NaN bit pattern (including ±0, ±∞ and subnormals). NaN would
    /// break the `PartialEq` assertions here (`NaN != NaN`); NaN payload
    /// survival is pinned by a dedicated bit-level test in the crate itself.
    fn f64_bits(&mut self) -> f64 {
        loop {
            let v = f64::from_bits(self.next_u64());
            if !v.is_nan() {
                return v;
            }
        }
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn string(&mut self) -> String {
        let len = self.below(24) as usize;
        (0..len)
            .map(|_| char::from(b'a' + (self.below(26) as u8)))
            .collect()
    }

    fn snapshot(&mut self) -> ClusterSnapshot {
        let nodes = 1 + self.below(4) as usize;
        let gpus = nodes * (1 + self.below(8) as usize);
        ClusterSnapshot {
            num_nodes: nodes,
            node_of: (0..gpus).map(|g| (g % nodes) as u32).collect(),
            rates: (0..gpus).map(|_| self.f64_bits()).collect(),
        }
    }

    fn coeffs(&mut self) -> ProfiledCoefficients {
        ProfiledCoefficients {
            spec: ModelSpec {
                name: self.string(),
                num_layers: self.below(200) as u32,
                hidden_size: self.next_u64(),
                ffn_hidden_size: self.next_u64(),
                num_heads: self.next_u64(),
                num_kv_heads: self.next_u64(),
                vocab_size: self.next_u64(),
                seq_len: self.next_u64(),
            },
            hardware: HardwareParams {
                gpu_peak_flops: self.f64_bits(),
                achievable_flops_fraction: self.f64_bits(),
                gpu_memory_bytes: self.f64_bits(),
                memory_reserve_bytes: self.f64_bits(),
                intra_node_bandwidth: self.f64_bits(),
                inter_node_bandwidth: self.f64_bits(),
                collective_latency: self.f64_bits(),
                checkpoint_bandwidth: self.f64_bits(),
                restart_init_seconds: self.f64_bits(),
            },
            memory: MemoryModel {
                activation_bytes_per_token_per_hidden: self.f64_bits(),
                backward_peak_factor: self.f64_bits(),
                param_and_grad_bytes_per_param: self.f64_bits(),
                optimizer_bytes_per_param: self.f64_bits(),
            },
        }
    }

    fn config(&mut self) -> PlannerConfig {
        PlannerConfig {
            global_batch_size: 1 + self.below(4096),
            candidate_tp_degrees: (0..self.below(4))
                .map(|_| 1 + self.below(8) as u32)
                .collect(),
            candidate_micro_batch_sizes: (0..self.below(4)).map(|_| 1 + self.below(16)).collect(),
            candidate_dp: if self.bool() {
                Some(
                    (0..self.below(4) as usize)
                        .map(|_| 1 + self.below(64) as usize)
                        .collect(),
                )
            } else {
                None
            },
            fixed_dp: if self.bool() {
                Some(1 + self.below(64) as usize)
            } else {
                None
            },
            straggler_threshold: self.f64_bits(),
            enable_group_splitting: self.bool(),
            nonuniform_layers: self.bool(),
            nonuniform_data: self.bool(),
            nonuniform_stages: self.bool(),
            parallelism: if self.bool() {
                Parallelism::Auto
            } else {
                Parallelism::Fixed(1 + self.below(16) as usize)
            },
            incremental: self.bool(),
        }
    }

    fn plan(&mut self) -> ParallelizationPlan {
        let pipelines = (0..1 + self.below(3))
            .map(|_| PipelinePlan {
                stages: (0..1 + self.below(4))
                    .map(|_| StagePlan {
                        group: TpGroup {
                            gpus: (0..1 + self.below(4))
                                .map(|_| GpuId(self.below(512) as u32))
                                .collect(),
                        },
                        layers: 1 + self.below(32) as u32,
                    })
                    .collect(),
                num_micro_batches: 1 + self.below(64),
            })
            .collect();
        ParallelizationPlan {
            pipelines,
            micro_batch_size: 1 + self.below(16),
            removed_gpus: (0..self.below(3))
                .map(|_| GpuId(self.below(512) as u32))
                .collect(),
        }
    }

    fn lattice(&mut self) -> ScoredLattice {
        ScoredLattice {
            snapshot: self.snapshot(),
            forced_dp: if self.bool() {
                Some(1 + self.below(64) as usize)
            } else {
                None
            },
            entries: (0..self.below(12))
                .map(|_| LatticeEntry {
                    max_tp: 1 + self.below(8) as u32,
                    dp: 1 + self.below(64) as usize,
                    micro_batch: 1 + self.below(16),
                    nonuniform_division: self.bool(),
                    estimated_step_time: if self.bool() {
                        Some(self.f64_bits())
                    } else {
                        None
                    },
                    reused: self.bool(),
                })
                .collect(),
            reused: self.below(64) as usize,
            evaluated: self.below(64) as usize,
            delta: self.bool(),
        }
    }

    fn outcome(&mut self) -> PlanOutcome {
        PlanOutcome {
            plan: self.plan(),
            estimated_step_time: self.f64_bits(),
            estimated_step_time_simplified: self.f64_bits(),
            chosen_tp: 1 + self.below(8) as u32,
            dp: 1 + self.below(64) as usize,
            timing: PlanTiming {
                grouping: Duration::new(self.below(1 << 20), self.below(1_000_000_000) as u32),
                division: Duration::new(self.below(1 << 20), self.below(1_000_000_000) as u32),
                ordering: Duration::new(self.below(1 << 20), self.below(1_000_000_000) as u32),
                assignment: Duration::new(self.below(1 << 20), self.below(1_000_000_000) as u32),
            },
            lattice: if self.bool() {
                Some(Arc::new(self.lattice()))
            } else {
                None
            },
        }
    }

    fn planned(&mut self) -> PlannedOutcome {
        let backend = BackendId::ALL[self.below(BackendId::ALL.len() as u64) as usize];
        PlannedOutcome {
            backend,
            plan: if self.bool() { Some(self.plan()) } else { None },
            active_gpus: (0..self.below(16))
                .map(|_| GpuId(self.below(512) as u32))
                .collect(),
            estimated_step_time: self.f64_bits(),
            transition_cost: self.f64_bits(),
            description: self.string(),
            malleus: if self.bool() {
                Some(Arc::new(self.outcome()))
            } else {
                None
            },
        }
    }

    fn plan_error(&mut self) -> PlanError {
        match self.below(8) {
            0 => PlanError::NoUsableGpus,
            1 => PlanError::NoFeasiblePlan {
                reason: self.string(),
            },
            2 => PlanError::InvalidPlan {
                reason: self.string(),
            },
            3 => PlanError::InfeasibleDataParallel {
                dp: self.below(256) as usize,
                groups: self.below(256) as usize,
            },
            4 => PlanError::NoHealthyNodes,
            5 => PlanError::InfeasibleConfiguration {
                backend: self.string(),
                reason: self.string(),
            },
            6 => PlanError::CannotAdapt {
                backend: self.string(),
                reason: self.string(),
            },
            _ => PlanError::Unavailable {
                reason: self.string(),
            },
        }
    }
}

/// `PlanOutcome` equality leaves out the timing and the lattice, so a
/// roundtrip compares them too.
fn assert_outcome_identical(a: &PlanOutcome, b: &PlanOutcome) {
    assert_eq!(a, b);
    assert_eq!(a.timing, b.timing);
    assert_eq!(a.lattice, b.lattice);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cluster_snapshots_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let v = g.snapshot();
        let back: ClusterSnapshot = from_bytes(&to_bytes(&v)).unwrap();
        prop_assert_eq!(&back, &v);
        // Rates must be bit-identical even when PartialEq would accept NaN-free
        // approximations.
        for (x, y) in v.rates.iter().zip(back.rates.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn coefficients_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let v = g.coeffs();
        let back: ProfiledCoefficients = from_bytes(&to_bytes(&v)).unwrap();
        prop_assert_eq!(back.spec, v.spec);
        prop_assert_eq!(
            back.hardware.gpu_peak_flops.to_bits(),
            v.hardware.gpu_peak_flops.to_bits()
        );
        prop_assert_eq!(
            back.memory.optimizer_bytes_per_param.to_bits(),
            v.memory.optimizer_bytes_per_param.to_bits()
        );
    }

    #[test]
    fn planner_configs_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let v = g.config();
        let back: PlannerConfig = from_bytes(&to_bytes(&v)).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn lattice_bearing_outcomes_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let mut v = g.outcome();
        // Force the lattice on for half the cases regardless of the coin flip
        // so the lattice path is always exercised across the run.
        if seed % 2 == 0 && v.lattice.is_none() {
            v.lattice = Some(Arc::new(g.lattice()));
        }
        let back: PlanOutcome = from_bytes(&to_bytes(&v)).unwrap();
        assert_outcome_identical(&back, &v);
    }

    #[test]
    fn planned_outcomes_roundtrip_for_every_backend(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        for backend in BackendId::ALL {
            let mut v = g.planned();
            v.backend = backend;
            let back: PlannedOutcome = from_bytes(&to_bytes(&v)).unwrap();
            prop_assert_eq!(&back, &v);
            if let (Some(x), Some(y)) = (&back.malleus, &v.malleus) {
                assert_outcome_identical(x, y);
            }
        }
    }

    #[test]
    fn plan_errors_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        for _ in 0..8 {
            let v = g.plan_error();
            let back: PlanError = from_bytes(&to_bytes(&v)).unwrap();
            prop_assert_eq!(back, v);
        }
    }

    #[test]
    fn frames_roundtrip_back_to_back(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let first = g.planned();
        let second = g.plan_error();
        let mut buf = Vec::new();
        write_frame(&mut buf, &first, DEFAULT_MAX_FRAME_LEN).unwrap();
        write_frame(&mut buf, &second, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut reader = &buf[..];
        prop_assert_eq!(read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap(), to_bytes(&first));
        prop_assert_eq!(read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap(), to_bytes(&second));
        prop_assert_eq!(read_frame_opt(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap(), None);
    }

    #[test]
    fn truncating_any_prefix_yields_a_typed_error(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        let v = g.planned();
        let bytes = to_bytes(&v);
        // Chop the encoding at a pseudo-random set of points; every prefix
        // must fail with a typed error (usually Truncated; an unlucky cut can
        // also surface as UnknownTag/Corrupt) — never a panic.
        for i in 0..16u64 {
            let cut = (g.below(bytes.len() as u64)) as usize;
            let err = from_bytes::<PlannedOutcome>(&bytes[..cut]);
            prop_assert!(err.is_err(), "prefix {} (cut {}) decoded", i, cut);
        }
    }
}

#[test]
fn every_plan_error_variant_roundtrips() {
    let variants = [
        PlanError::NoUsableGpus,
        PlanError::NoFeasiblePlan { reason: "r".into() },
        PlanError::InvalidPlan { reason: "r".into() },
        PlanError::InfeasibleDataParallel { dp: 8, groups: 3 },
        PlanError::NoHealthyNodes,
        PlanError::InfeasibleConfiguration {
            backend: "b".into(),
            reason: "r".into(),
        },
        PlanError::CannotAdapt {
            backend: "b".into(),
            reason: "r".into(),
        },
        PlanError::Unavailable { reason: "r".into() },
    ];
    for v in variants {
        let back: PlanError = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back, v);
    }
}

#[test]
fn truncated_payload_is_a_typed_truncated_error() {
    let value = "plan payload".to_string();
    let payload = to_bytes(&value);
    let mut buf = Vec::new();
    write_frame(&mut buf, &value, DEFAULT_MAX_FRAME_LEN).unwrap();
    buf.truncate(buf.len() - 4);
    match read_frame(&mut &buf[..], DEFAULT_MAX_FRAME_LEN) {
        Err(WireError::Truncated { needed, available }) => {
            assert_eq!(needed, payload.len());
            assert_eq!(available, payload.len() - 4);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn truncated_header_is_a_typed_truncated_error() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &b'x', DEFAULT_MAX_FRAME_LEN).unwrap();
    for cut in 1..FRAME_HEADER_LEN {
        match read_frame(&mut &buf[..cut], DEFAULT_MAX_FRAME_LEN) {
            Err(WireError::Truncated { needed, available }) => {
                assert_eq!(needed, FRAME_HEADER_LEN);
                assert_eq!(available, cut);
            }
            other => panic!("expected Truncated at cut {cut}, got {other:?}"),
        }
    }
}

#[test]
fn length_prefix_beyond_the_cap_never_allocates() {
    // Hand-forge a header claiming a 4 GiB-1 payload with no bytes behind it.
    let mut buf = Vec::new();
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.extend_from_slice(&u32::MAX.to_le_bytes());
    match read_frame(&mut &buf[..], DEFAULT_MAX_FRAME_LEN) {
        Err(WireError::Oversized { len, cap }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(cap, DEFAULT_MAX_FRAME_LEN);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn unknown_version_is_rejected_before_the_payload() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.extend_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        read_frame(&mut &buf[..], DEFAULT_MAX_FRAME_LEN),
        Err(WireError::UnknownVersion {
            version: WIRE_VERSION + 1
        })
    );
}

#[test]
fn foreign_magic_is_rejected() {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"HTTP");
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        read_frame(&mut &buf[..], DEFAULT_MAX_FRAME_LEN),
        Err(WireError::BadMagic { found: *b"HTTP" })
    );
}

#[test]
fn unknown_enum_tags_are_typed_errors() {
    // BackendId tag 6 does not exist.
    assert_eq!(
        from_bytes::<BackendId>(&[6]),
        Err(WireError::UnknownTag {
            what: "BackendId",
            tag: 6
        })
    );
    // Parallelism tag 9 does not exist.
    assert_eq!(
        from_bytes::<Parallelism>(&[9]),
        Err(WireError::UnknownTag {
            what: "Parallelism",
            tag: 9
        })
    );
    // PlanError tag 8 does not exist.
    assert_eq!(
        from_bytes::<PlanError>(&[8]),
        Err(WireError::UnknownTag {
            what: "PlanError",
            tag: 8
        })
    );
    // Option tag 2 does not exist.
    assert_eq!(
        from_bytes::<Option<u8>>(&[2]),
        Err(WireError::UnknownTag {
            what: "Option",
            tag: 2
        })
    );
}

#[test]
fn hostile_vec_count_inside_a_struct_is_bounded() {
    // A ClusterSnapshot whose node_of claims 2^50 entries backed by 4 bytes.
    let mut buf = Vec::new();
    buf.extend_from_slice(&3u64.to_le_bytes()); // num_nodes
    buf.extend_from_slice(&(1u64 << 50).to_le_bytes()); // node_of length
    buf.extend_from_slice(&[0u8; 4]);
    match from_bytes::<ClusterSnapshot>(&buf) {
        Err(WireError::Truncated { needed, .. }) => assert_eq!(needed, 1usize << 50),
        other => panic!("expected Truncated, got {other:?}"),
    }
}
