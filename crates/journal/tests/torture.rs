//! Torture tests for the journal: proptest codec round-trips, truncation
//! at every byte boundary, and corruption at every byte position. The
//! invariant throughout: recovery never panics and never invents events —
//! it returns a prefix of what was actually appended — and folding what it
//! returns never panics either, whatever numbers the records carry.

use std::sync::Arc;

use pper_journal::{
    recover, AttemptFailure, JobJournal, JournalEvent, JournalState, JournalStore, MemStore,
    TaskClass,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Build one event from generated raw material. The selector picks the
/// variant; strings/numbers are reused across fields so every variant gets
/// exercised with varied payloads (including non-ASCII and empty strings).
fn build_event(
    sel: u8,
    s1: String,
    nums: (u32, u64, u64),
    pairs: Vec<(String, String)>,
) -> JournalEvent {
    let (n32, n64, bits) = nums;
    let cost = f64::from_bits(bits);
    let kind = if n32 % 2 == 0 {
        TaskClass::Map
    } else {
        TaskClass::Reduce
    };
    let failures: Vec<AttemptFailure> = pairs
        .iter()
        .enumerate()
        .map(|(i, (_, e))| AttemptFailure {
            attempt: i as u32 + 1,
            wasted_cost: cost / 2.0,
            error: e.clone(),
        })
        .collect();
    match sel % 8 {
        0 => JournalEvent::JobStarted {
            job_id: s1,
            params: pairs,
        },
        1 => JournalEvent::ScheduleGenerated {
            job1_cost: cost,
            task_blocks: vec![n64; (n32 % 5) as usize],
            digest: bits,
        },
        2 => JournalEvent::TaskFinished {
            job: s1,
            kind,
            index: n32,
            attempts: n32 % 7,
            cost,
            wasted: cost / 4.0,
            failures,
        },
        3 => JournalEvent::CheckpointCut {
            task: n32 % 64,
            seq: n32 % 9,
            blocks_done: n64,
            clock: cost,
            duplicates: vec![(cost / 3.0, n32, n32.wrapping_add(1)); pairs.len()],
        },
        4 => JournalEvent::CountersSnapshot {
            entries: pairs.into_iter().map(|(k, _)| (k, n64)).collect(),
        },
        5 => JournalEvent::DeadLettered {
            seq: n32,
            job: s1,
            kind,
            index: n32,
            attempts: n32 % 7,
            failures,
        },
        6 => JournalEvent::DlqDrained { seq: n32 },
        _ => JournalEvent::JobFinished {
            duplicates: n64,
            total_cost: cost,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // encode → decode → encode is the identity on bytes. Byte-level
    // comparison sidesteps NaN != NaN while still proving the codec is
    // lossless down to f64 bit patterns.
    #[test]
    fn encode_decode_encode_is_identity(
        sel in 0u8..8,
        s1 in ".{0,24}",
        nums in (0u32..=u32::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        pairs in vec((".{0,12}", ".{0,12}"), 0..4),
    ) {
        let ev = build_event(sel, s1, nums, pairs);
        let bytes = ev.encode();
        let back = JournalEvent::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.name(), ev.name());
    }

    // Decoding arbitrary garbage never panics — it returns Ok or Err.
    #[test]
    fn decode_arbitrary_bytes_never_panics(
        bytes in vec(0u8..=255, 0..200),
    ) {
        let _ = JournalEvent::decode(&bytes);
    }

    // A journal truncated at ANY byte length recovers without panicking,
    // what it recovers is a prefix of the appended events, and that prefix
    // folds without panicking. Half the cases carry `u32::MAX` in every
    // 32-bit field, a dead-letter `seq` among them.
    #[test]
    fn truncation_at_every_boundary_recovers_a_prefix(
        sels in vec(0u8..8, 1..6),
        s1 in ".{0,16}",
        nums in (
            (0u8..2, 0u32..=u32::MAX).prop_map(|(edge, n)| if edge == 0 { u32::MAX } else { n }),
            0u64..=u64::MAX,
            0u64..=u64::MAX,
        ),
    ) {
        let mstore = Arc::new(MemStore::new());
        let store: Arc<dyn JournalStore> = Arc::<MemStore>::clone(&mstore);
        let mut j = JobJournal::start(Arc::clone(&store), "trunc").expect("start");
        let mut appended = Vec::new();
        for (i, sel) in sels.iter().enumerate() {
            let ev = build_event(*sel, format!("{s1}-{i}"), nums, vec![]);
            j.append(&ev).expect("append");
            appended.push(ev);
        }
        let full = store.read("trunc").expect("read").len();
        for cut in 0..full {
            let m2 = Arc::new(MemStore::new());
            let s2: Arc<dyn JournalStore> = Arc::<MemStore>::clone(&m2);
            s2.append("trunc", &store.read("trunc").expect("read")).expect("copy");
            m2.truncate("trunc", cut);
            if cut < pper_journal::MAGIC.len() {
                prop_assert!(recover(&s2, "trunc").is_err());
                continue;
            }
            let rec = recover(&s2, "trunc").expect("recover");
            let _ = JournalState::replay(&rec.events);
            prop_assert!(rec.events.len() <= appended.len());
            for (got, want) in rec.events.iter().zip(appended.iter()) {
                prop_assert_eq!(got.1.encode(), want.encode());
            }
            if cut < full {
                prop_assert!(!rec.report.clean() || rec.events.len() < appended.len()
                    || rec.report.valid_bytes as usize == cut);
            }
        }
    }

    // Flipping ANY single byte of a journal never panics recovery, and
    // every event that still decodes matches the original stream up to
    // the first divergence point.
    #[test]
    fn single_byte_corruption_never_panics(
        sels in vec(0u8..8, 1..5),
        pos_seed in 0u64..=u64::MAX,
    ) {
        let mstore = Arc::new(MemStore::new());
        let store: Arc<dyn JournalStore> = Arc::<MemStore>::clone(&mstore);
        let mut j = JobJournal::start(Arc::clone(&store), "corrupt").expect("start");
        let mut appended = Vec::new();
        for sel in &sels {
            let ev = build_event(*sel, "job".into(), (7, 9, 11), vec![]);
            j.append(&ev).expect("append");
            appended.push(ev);
        }
        let bytes = store.read("corrupt").expect("read");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        mstore.corrupt("corrupt", pos);
        match recover(&store, "corrupt") {
            Err(_) => {
                // Only header damage may hard-error.
                prop_assert!(pos < pper_journal::MAGIC.len());
            }
            Ok(rec) => {
                prop_assert!(rec.events.len() <= appended.len());
                // CRC catches the flip: all surviving events are intact.
                for (got, want) in rec.events.iter().zip(appended.iter()) {
                    prop_assert_eq!(got.1.encode(), want.encode());
                }
            }
        }
    }
}

/// A checkpoint cut as a reduce task writes it: its watermark, its clock
/// and the duplicates found since its previous cut.
fn cut_record() -> JournalEvent {
    JournalEvent::CheckpointCut {
        task: 1,
        seq: 3,
        blocks_done: 12,
        clock: 1_507.25,
        duplicates: vec![(1_499.0, 10, 12), (1_500.5, 12, 31)],
    }
}

/// The two events formats 2, 3 and 5 re-shaped: every strict prefix of the
/// payload and every extension of it is an error, never a shorter event —
/// their nested counts must not let a truncated record decode.
#[test]
fn reshaped_events_decode_only_whole() {
    let schedule = JournalEvent::ScheduleGenerated {
        job1_cost: 812.5,
        task_blocks: vec![60, 0, 39],
        digest: u64::MAX,
    };
    for ev in [cut_record(), schedule] {
        let bytes = ev.encode();
        assert_eq!(JournalEvent::decode(&bytes).unwrap(), ev);
        for cut in 0..bytes.len() {
            assert!(
                JournalEvent::decode(&bytes[..cut]).is_err(),
                "{} cut at {cut} of {}",
                ev.name(),
                bytes.len()
            );
        }
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0; 8]);
        assert!(JournalEvent::decode(&longer).is_err());
    }
    // A count larger than the payload could hold is an error, not an
    // allocation: 4 billion duplicates announced, none present.
    let mut lying = cut_record().encode();
    lying.truncate(1 + 4 + 4 + 8 + 8);
    lying.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(JournalEvent::decode(&lying).is_err());
}

/// Deterministic (non-prop) sweep mirroring the conformance suite's shape:
/// append a realistic event sequence, then confirm that recovery after a
/// cut at every single byte yields exactly the durable prefix — and so does
/// a run of zeros behind any whole record.
#[test]
fn realistic_sequence_truncation_sweep() {
    let events = vec![
        JournalEvent::JobStarted {
            job_id: "sweep".into(),
            params: vec![
                ("dataset".into(), "quick.jsonl".into()),
                ("machines".into(), "1".into()),
            ],
        },
        JournalEvent::ScheduleGenerated {
            job1_cost: 1234.5678,
            task_blocks: vec![9, 8],
            digest: 0x5eed,
        },
        JournalEvent::TaskFinished {
            job: "pper-job2-resolution".into(),
            kind: TaskClass::Reduce,
            index: 0,
            attempts: 2,
            cost: 800.0,
            wasted: 120.25,
            failures: vec![AttemptFailure {
                attempt: 1,
                wasted_cost: 120.25,
                error: "injected crash at 100".into(),
            }],
        },
        cut_record(),
        JournalEvent::JobFinished {
            duplicates: 99,
            total_cost: 2222.25,
        },
    ];
    let mstore = Arc::new(MemStore::new());
    let store: Arc<dyn JournalStore> = Arc::<MemStore>::clone(&mstore);
    let mut j = JobJournal::start(Arc::clone(&store), "sweep").unwrap();
    let mut ends = Vec::new(); // byte length after each append
    for ev in &events {
        j.append(ev).unwrap();
        ends.push(store.read("sweep").unwrap().len());
    }
    let bytes = store.read("sweep").unwrap();
    for cut in pper_journal::MAGIC.len()..=bytes.len() {
        let m2 = Arc::new(MemStore::new());
        let s2: Arc<dyn JournalStore> = Arc::<MemStore>::clone(&m2);
        s2.append("sweep", &bytes[..cut]).unwrap();
        let rec = recover(&s2, "sweep").unwrap();
        let durable = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(
            rec.events.len(),
            durable,
            "cut at {cut}: events fully synced before the cut must survive"
        );
        for (i, (_, got)) in rec.events.iter().enumerate() {
            assert_eq!(got, &events[i], "cut at {cut}, event {i}");
        }
        let on_boundary = cut == pper_journal::MAGIC.len() || ends.contains(&cut);
        assert_eq!(rec.report.clean(), on_boundary);
    }
    // A power cut on a filesystem that had extended the file before it
    // wrote the blocks: whole records, then a run of zeros. `crc32(b"")` is
    // 0, so the zeros are well-formed empty frames — the event decoder is
    // what stops at them, and the prefix before them is recovered clean.
    for (i, &end) in ends.iter().enumerate() {
        let mut image = bytes[..end].to_vec();
        image.resize(end + 4096, 0);
        let s2 = MemStore::shared();
        s2.append("sweep", &image).unwrap();
        let rec = recover(&s2, "sweep").unwrap();
        let got: Vec<&JournalEvent> = rec.events.iter().map(|(_, e)| e).collect();
        assert_eq!(
            got,
            events[..=i].iter().collect::<Vec<_>>(),
            "zeros at {end}"
        );
        assert!(
            rec.report.corrupt && !rec.report.torn_tail,
            "zeros at {end}"
        );
        assert_eq!(rec.report.valid_bytes as usize, end, "zeros at {end}");
        assert_eq!(rec.report.dropped_bytes, 4096, "zeros at {end}");
    }
}
