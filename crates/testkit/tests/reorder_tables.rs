//! `CompiledBus::reordered` must rebuild exactly the tables a fresh
//! compile of the permuted network produces: the same hp and
//! interference sets, in the same order, and the same report for the
//! same solve point. The inputs mix standard and extended identifiers
//! (including extended frames that share an 11-bit base with a
//! standard one), fullCAN, basicCAN and FIFO senders, and both bus
//! backends; each network is checked under a random permutation of its
//! identifiers.

use carta_can::backend::BackendConfig;
use carta_can::controller::ControllerType;
use carta_can::error_model::{ErrorModel, NoErrors, SporadicErrors};
use carta_can::message::CanId;
use carta_can::network::CanNetwork;
use carta_can::prelude::{AnalysisConfig, CompiledBus, RtaWorkspace, SolvePoint, StuffingMode};
use carta_core::time::Time;
use carta_testkit::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mixed controllers, up to 24 messages.
fn shape() -> NetShape {
    NetShape {
        message_range: (2, 24),
        ..NetShape::mixed()
    }
}

/// Re-assigns `net`'s identifiers from a pool mixing standard and
/// extended frames. Message `k` gets either standard `0x100 + 8k` or an
/// extended identifier whose 11-bit base is some message's standard
/// base (so standard/extended tie-breaks occur) and whose low bits are
/// `k` (so every arbitration key stays unique).
fn mix_pool(net: &mut CanNetwork, rng: &mut StdRng) {
    let n = net.messages().len() as u32;
    for (k, m) in net.messages_mut().iter_mut().enumerate() {
        let k = k as u32;
        m.id = if rng.gen_range(0..2) == 0 {
            CanId::standard(0x100 + 8 * k).expect("valid standard id")
        } else {
            let base = 0x100 + 8 * rng.gen_range(0..n);
            CanId::extended((base << 18) | k).expect("valid extended id")
        };
    }
}

/// `net` with its identifiers shuffled among the messages.
fn permuted(net: &CanNetwork, rng: &mut StdRng) -> CanNetwork {
    let mut ids: Vec<CanId> = net.messages().iter().map(|m| m.id).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let mut out = net.clone();
    for (m, id) in out.messages_mut().iter_mut().zip(ids) {
        m.id = id;
    }
    out
}

/// The hp and interference sets by their definition: pairwise key
/// comparisons in ascending index order, other-node lower-priority
/// messages appended for basicCAN and FIFO senders.
fn pairwise_sets(net: &CanNetwork) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let msgs = net.messages();
    let n = msgs.len();
    let key = |j: usize| msgs[j].id.arbitration_key();
    let mut hp = Vec::new();
    let mut interference = Vec::new();
    for i in 0..n {
        let hp_i: Vec<usize> = (0..n).filter(|&j| key(j) < key(i)).collect();
        let mut set = hp_i.clone();
        if !matches!(net.controller_of(&msgs[i]), ControllerType::FullCan) {
            set.extend((0..n).filter(|&j| key(j) > key(i) && msgs[j].sender != msgs[i].sender));
        }
        hp.push(hp_i);
        interference.push(set);
    }
    (hp, interference)
}

fn check(net: CanNetwork, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = net;
    mix_pool(&mut net, &mut rng);
    let stuffing = if rng.gen_range(0..4) == 0 {
        StuffingMode::None
    } else {
        StuffingMode::WorstCase
    };
    let config = AnalysisConfig {
        stuffing,
        ..AnalysisConfig::default()
    };
    let sporadic = SporadicErrors::new(Time::from_ms(rng.gen_range(2..50)));
    let base = CompiledBus::compile(&net, stuffing).expect("generated networks compile");
    for _ in 0..3 {
        let perm = permuted(&net, &mut rng);
        let fresh = CompiledBus::compile(&perm, stuffing).expect("permutations compile");
        let reordered = base.reordered(&perm);
        prop_assert_eq!(reordered.hp_sets(), fresh.hp_sets(), "hp sets");
        prop_assert_eq!(
            reordered.interference_sets(),
            fresh.interference_sets(),
            "interference sets"
        );
        let (hp, interference) = pairwise_sets(&perm);
        prop_assert_eq!(reordered.hp_sets(), &hp[..], "hp sets vs definition");
        prop_assert_eq!(
            reordered.interference_sets(),
            &interference[..],
            "interference sets vs definition"
        );
        let point = SolvePoint::from_network(&perm);
        for errors in [&NoErrors as &dyn ErrorModel, &sporadic] {
            let a = reordered.solve_point(&point, errors, &config, &mut RtaWorkspace::new());
            let b = fresh.solve_point(&point, errors, &config, &mut RtaWorkspace::new());
            prop_assert_eq!(a, b, "reports under {}", errors.describe());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn classic_reorder_equals_fresh_compile((seed, net) in networks(shape()), perm in any::<u64>()) {
        check(net, seed ^ perm)?;
    }

    #[test]
    fn fd_reorder_equals_fresh_compile(
        (seed, net) in networks(shape().with_backend(BackendConfig::can_fd())),
        perm in any::<u64>(),
    ) {
        check(net, seed ^ perm)?;
    }
}
