//! System-level checks of the multi-core throughput engine: every farm
//! shape must produce byte-identical output to the software reference
//! for every mode it can run, backpressure must hold at the submission
//! boundary, and adding cores must monotonically improve aggregate
//! cycles/block while keeping each core's bus saturated.

use rijndael_ip::engine::{BackendSpec, Engine, JobError, Mode, SubmitError};
use rijndael_ip::rijndael::modes::{Cbc, Cfb, Ctr, Ecb, Ofb};
use rijndael_ip::rijndael::Aes128;
use testkit::forall;
use testkit::prop::{any, vec_of};

/// The farm shapes the acceptance sweep covers: single combined core,
/// homogeneous multi-core farms of each hardware variant, each software
/// backend alone, the production `Auto` slot (whatever the dispatch race
/// or `RIJNDAEL_FORCE_BACKEND` picked), and a heterogeneous mix.
const FARMS: &[&[BackendSpec]] = &[
    &[BackendSpec::EncDecCore],
    &[BackendSpec::EncryptCore; 3],
    &[BackendSpec::DecryptCore; 3],
    &[BackendSpec::EncDecCore; 4],
    &[BackendSpec::Software],
    &[BackendSpec::Ttable; 2],
    &[BackendSpec::Bitsliced; 2],
    &[BackendSpec::Auto; 2],
    &[
        BackendSpec::EncryptCore,
        BackendSpec::DecryptCore,
        BackendSpec::EncDecCore,
        BackendSpec::Software,
        BackendSpec::Ttable,
        BackendSpec::Bitsliced,
    ],
];

fn farm_supports(specs: &[BackendSpec], mode: Mode) -> bool {
    use rijndael_ip::aes_ip::core::Direction;
    specs.iter().any(|s| match mode.direction() {
        Direction::Encrypt => !matches!(s, BackendSpec::DecryptCore),
        Direction::Decrypt => !matches!(s, BackendSpec::EncryptCore),
    })
}

forall!(cases = 24, fn engine_matches_software_reference_on_every_farm(
    key in any::<[u8; 16]>(),
    iv in any::<[u8; 16]>(),
    data in vec_of(any::<u8>(), 0..96),
) {
    let reference = Aes128::new(&key);
    let mut whole_blocks = data.clone();
    whole_blocks.truncate(data.len() / 16 * 16);

    // (mode, input, expected) triples computed from the software reference.
    let mut cases: Vec<(Mode, Vec<u8>, Vec<u8>)> = Vec::new();
    let mut buf = whole_blocks.clone();
    Ecb::encrypt(&reference, &mut buf).unwrap();
    cases.push((Mode::EcbEncrypt, whole_blocks.clone(), buf.clone()));
    let mut dec = buf.clone();
    Ecb::decrypt(&reference, &mut dec).unwrap();
    cases.push((Mode::EcbDecrypt, buf, dec));
    let mut buf = whole_blocks.clone();
    Cbc::encrypt(&reference, &iv, &mut buf).unwrap();
    cases.push((Mode::CbcEncrypt(iv), whole_blocks.clone(), buf.clone()));
    let mut dec = buf.clone();
    Cbc::decrypt(&reference, &iv, &mut dec).unwrap();
    cases.push((Mode::CbcDecrypt(iv), buf, dec));
    let mut buf = data.clone();
    Ctr::apply(&reference, &iv, &mut buf);
    cases.push((Mode::Ctr(iv), data.clone(), buf.clone()));
    cases.push((Mode::Ctr(iv), buf, data.clone()));
    let mut buf = data.clone();
    Cfb::encrypt(&reference, &iv, &mut buf);
    cases.push((Mode::CfbEncrypt(iv), data.clone(), buf.clone()));
    let mut dec = buf.clone();
    Cfb::decrypt(&reference, &iv, &mut dec);
    cases.push((Mode::CfbDecrypt(iv), buf, dec));
    let mut buf = data.clone();
    Ofb::apply(&reference, &iv, &mut buf);
    cases.push((Mode::Ofb(iv), data.clone(), buf.clone()));
    cases.push((Mode::Ofb(iv), buf, data.clone()));

    for specs in FARMS {
        let mut eng = Engine::with_farm(&key, specs, cases.len());
        let mut expected = Vec::new();
        for (mode, input, want) in &cases {
            if !farm_supports(specs, *mode) {
                continue;
            }
            eng.try_submit(*mode, input.clone()).unwrap();
            expected.push((*mode, want.clone()));
        }
        let outputs = eng.run();
        assert_eq!(outputs.len(), expected.len());
        for (out, (mode, want)) in outputs.iter().zip(&expected) {
            assert_eq!(
                out.data.as_ref().unwrap(),
                want,
                "{mode} diverged on farm {specs:?}"
            );
        }
    }
});

#[test]
fn farms_without_the_needed_datapath_report_per_job() {
    let key = [7u8; 16];
    let mut eng = Engine::with_farm(&key, &[BackendSpec::DecryptCore; 2], 4);
    eng.try_submit(Mode::EcbEncrypt, vec![0u8; 32]).unwrap();
    eng.try_submit(Mode::EcbDecrypt, vec![0u8; 32]).unwrap();
    let out = eng.run();
    assert!(matches!(out[0].data, Err(JobError::NoCapableCore { .. })));
    assert!(out[1].data.is_ok(), "decrypt farm still decrypts");
}

#[test]
fn backpressure_is_bounded_and_recoverable() {
    let key = [3u8; 16];
    let mut eng = Engine::with_farm(&key, &[BackendSpec::EncDecCore], 2);
    eng.try_submit(Mode::Ctr([0; 16]), vec![1; 16]).unwrap();
    eng.try_submit(Mode::Ctr([0; 16]), vec![2; 16]).unwrap();
    assert_eq!(
        eng.try_submit(Mode::Ctr([0; 16]), vec![3; 16]),
        Err(SubmitError::Busy { capacity: 2 }),
    );
    assert_eq!(eng.queued(), 2, "the rejected job held no slot");
    assert_eq!(eng.run().len(), 2);
    assert!(eng.try_submit(Mode::Ctr([0; 16]), vec![3; 16]).is_ok());
}

#[test]
fn ctr_scaling_improves_monotonically_with_saturated_cores() {
    // The tentpole acceptance check: aggregate cycles/block improves
    // monotonically from 1 to 4 cores on a CTR workload, with every
    // participating core's bus >= 90% occupied.
    let key = [0x2Bu8; 16];
    let payload = vec![0xC3u8; 256 * 16];
    let mut last = f64::INFINITY;
    for cores in 1..=4usize {
        let mut eng = Engine::with_farm(&key, &vec![BackendSpec::EncryptCore; cores], 2);
        eng.try_submit(Mode::Ctr([0x10; 16]), payload.clone())
            .unwrap();
        assert!(eng.run()[0].data.is_ok());
        let s = eng.stats();
        assert_eq!(s.total_blocks(), 256);
        assert!(
            s.cycles_per_block() < last,
            "{cores} cores: {:.2} cycles/block did not beat {last:.2}",
            s.cycles_per_block(),
        );
        assert!(
            s.min_occupancy_pct() >= 90.0,
            "{cores} cores: occupancy fell to {:.1}%",
            s.min_occupancy_pct(),
        );
        last = s.cycles_per_block();
    }
    // Four saturated cores approach 50/4 cycles per block.
    assert!(
        last < 13.0,
        "expected near 12.5 cycles/block, got {last:.2}"
    );
}

#[test]
fn software_and_hardware_farm_members_interleave_cleanly() {
    // A mixed farm shards one ECB job across hardware and software
    // members; the reassembled buffer must still match the reference.
    // 26 blocks = four 8-block granules less a ragged tail, so the
    // granule planner still hands every member a share (16/8/2).
    let key = [0x55u8; 16];
    let specs = [
        BackendSpec::EncryptCore,
        BackendSpec::Software,
        BackendSpec::Ttable,
    ];
    let data: Vec<u8> = (0..26 * 16).map(|i| (i * 13 + 1) as u8).collect();
    let mut eng = Engine::with_farm(&key, &specs, 1);
    eng.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
    let out = eng.run();

    let mut expected = data;
    Ecb::encrypt(&Aes128::new(&key), &mut expected).unwrap();
    assert_eq!(out[0].data.as_ref().unwrap(), &expected);

    let s = eng.stats();
    assert!(
        s.per_core.iter().all(|c| c.blocks > 0),
        "all members took a share: {s}"
    );
}
