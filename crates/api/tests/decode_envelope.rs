//! `decode_envelope` faces whatever a client sends. Whatever the bytes,
//! it must return (never panic); nesting past the JSON parser's
//! `MAX_DEPTH` must come back as `request.invalid`; and every request
//! the encoder writes must decode to itself.
//!
//! Wire numbers are JSON doubles, so integers round-trip only below
//! 2^53 ([`EXACT`]); larger ones must be refused, never rounded.

use carta_api::prelude::*;
use carta_api::wire::{decode_envelope, encode_request_with_deadline};
use carta_can::backend::BackendConfig;
use carta_obs::json::MAX_DEPTH;
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

/// The first integer a JSON double cannot hold exactly.
const EXACT: u64 = 1 << 53;

fn no_sessions(_: &str) -> Option<String> {
    None
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// One request of eight kinds, its fields drawn from `seed`; `text`
/// lands in every free-text field (CSV source, message filter, repro
/// document), so quotes, backslashes and control characters go
/// through the encoder's escaping.
fn request(kind: u8, seed: u64, text: String) -> Request {
    let model = match seed % 3 {
        0 => Model::case_study(),
        1 => Model {
            source: ModelSource::CaseStudy { seed: seed >> 2 },
            options: ModelOptions {
                backend: if seed & 4 == 0 {
                    BackendConfig::Can
                } else {
                    BackendConfig::can_fd()
                },
                jitter_pct: Some((seed % 6000) as f64 / 100.0),
                assume_unknown_pct: (seed & 8 != 0).then_some(12.5),
            },
        },
        _ => Model::from_csv(text.clone()),
    };
    let scenario = match (seed >> 8) % 3 {
        0 => ScenarioSpec::Worst,
        1 => ScenarioSpec::Best,
        _ => ScenarioSpec::SporadicMs(1 + (seed >> 16) % 100),
    };
    match kind % 8 {
        0 => Request::Generate { seed },
        1 => Request::Load { model },
        2 => Request::Lint { model },
        3 => Request::Analyze { model, scenario },
        4 => Request::Sensitivity {
            model,
            scenario,
            message: Some(text),
        },
        5 => Request::Optimize {
            model,
            population: (seed % 200) as usize,
            generations: (seed >> 8) as usize % 100,
            emit_csv: seed & 1 == 1,
        },
        6 => Request::Dimension {
            model,
            scenario,
            rates: vec![125_000, seed % 1_000_000 + 1],
        },
        _ => Request::FuzzReplay { repro_json: text },
    }
}

/// `doc` wrapped in one array or object level per entry of `levels`.
fn wrapped(doc: &str, levels: &[bool]) -> String {
    let mut out = String::new();
    for &array in levels {
        out.push_str(if array { "[" } else { "{\"k\":" });
    }
    out.push_str(doc);
    for &array in levels.iter().rev() {
        out.push(if array { ']' } else { '}' });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..1024)) {
        let _ = decode_envelope(&lossy(&bytes), &no_sessions);
    }

    #[test]
    fn damaged_envelopes_never_panic(
        kind in any::<u8>(),
        seed in any::<u64>(),
        text in vec(any::<u8>(), 0..48),
        cut in any::<usize>(),
        noise in vec(any::<u8>(), 0..8),
    ) {
        let doc = encode_request_with_deadline(&request(kind, seed, lossy(&text)), None);
        let mut bytes = doc.into_bytes();
        let at = cut % (bytes.len() + 1);
        bytes.truncate(at);
        bytes.extend_from_slice(&noise);
        let _ = decode_envelope(&lossy(&bytes), &no_sessions);
    }

    #[test]
    fn valid_envelopes_roundtrip(
        kind in any::<u8>(),
        seed in 0..EXACT,
        text in vec(any::<u8>(), 0..48),
        deadline_ms in option::of(0..EXACT),
    ) {
        let req = request(kind, seed, lossy(&text));
        let doc = encode_request_with_deadline(&req, deadline_ms);
        match decode_envelope(&doc, &no_sessions) {
            Ok(decoded) => prop_assert_eq!(decoded, (req, deadline_ms)),
            Err(e) => prop_assert!(false, "{doc} did not decode: {e:?}"),
        }
    }

    #[test]
    fn inexact_integers_are_refused_not_rounded(
        seed in 0..EXACT,
        deadline_ms in EXACT..=u64::MAX,
    ) {
        let doc = encode_request_with_deadline(&Request::Generate { seed }, Some(deadline_ms));
        match decode_envelope(&doc, &no_sessions) {
            Ok(decoded) => prop_assert!(false, "{doc} decoded to {decoded:?}"),
            Err(e) => prop_assert_eq!(e.code, ErrorCode::RequestInvalid),
        }
    }

    #[test]
    fn nested_envelopes_are_request_invalid(
        kind in any::<u8>(),
        seed in 0..EXACT,
        levels in vec(any::<bool>(), 0..=256),
    ) {
        let req = request(kind, seed, "m".into());
        let doc = wrapped(&encode_request_with_deadline(&req, None), &levels);
        match decode_envelope(&doc, &no_sessions) {
            Ok(decoded) => {
                prop_assert!(levels.is_empty(), "{} levels decoded", levels.len());
                prop_assert_eq!(decoded, (req, None));
            }
            Err(e) => {
                prop_assert!(!levels.is_empty(), "bare envelope failed: {e:?}");
                prop_assert_eq!(e.code, ErrorCode::RequestInvalid);
                if levels.len() >= MAX_DEPTH {
                    prop_assert!(
                        e.message.contains("nesting deeper than"),
                        "{} levels: {}",
                        levels.len(),
                        e.message
                    );
                }
            }
        }
    }
}
