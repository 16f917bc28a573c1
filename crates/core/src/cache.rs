//! Persistent characterization cache.
//!
//! [`crate::study::CaseStudy::build`] re-runs the gate-level DTA
//! characterization kernel — by far the most expensive step of the flow —
//! on every process start.  This module persists the extracted per-voltage
//! CDF sets to disk as JSON, keyed by a structural fingerprint of the
//! [`CaseStudyConfig`], so a restarted process (in particular the
//! `sfi-serve` daemon) starts warm:
//!
//! * [`store`] writes atomically (temp file + rename, the same discipline
//!   as campaign checkpoints), so a crash mid-write leaves the previous
//!   cache intact.
//! * [`load`] is strict: a missing file, malformed JSON, a version or
//!   fingerprint mismatch, or an inconsistent shape all yield `None` and
//!   the caller re-characterizes from scratch instead of trusting stale
//!   or hand-edited data.
//!
//! Floating-point values round-trip exactly (the JSON writer uses
//! shortest-round-trip formatting), so a cache-restored
//! [`TimingCharacterization`] is bit-identical to a freshly computed one
//! and downstream Monte-Carlo results do not depend on whether the cache
//! was warm.

use crate::json::Json;
use crate::study::CaseStudyConfig;
use sfi_netlist::alu::AluOp;
use sfi_timing::{ErrorCdf, TimingCharacterization};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Current cache format version.
pub const FORMAT_VERSION: u64 = 1;

impl CaseStudyConfig {
    /// A structural fingerprint of the configuration (FNV-1a over every
    /// field).  The characterization cache stores it and refuses to load a
    /// cache written for a different configuration.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.alu_width as u64);
        h.u64(self.target_fmax_mhz.to_bits());
        h.u64(self.nominal_vdd.to_bits());
        h.u64(self.voltages.len() as u64);
        for &v in &self.voltages {
            h.u64(v.to_bits());
        }
        h.u64(self.cycles_per_op as u64);
        h.u64(self.budgets.add_sub.to_bits());
        h.u64(self.budgets.shifter.to_bits());
        h.u64(self.budgets.logic.to_bits());
        h.u64(self.budgets.comparator.to_bits());
        h.u64(self.seed);
        h.finish()
    }
}

/// The cache file for `fingerprint` inside `dir`.
pub fn cache_file(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("charcache-{fingerprint:016x}.json"))
}

fn characterization_to_json(ch: &TimingCharacterization) -> Json {
    let cdfs: Vec<Json> = AluOp::ALL
        .iter()
        .map(|&op| {
            Json::Arr(
                (0..ch.endpoint_count())
                    .map(|e| {
                        Json::Arr(
                            ch.cdf(op, e)
                                .samples()
                                .iter()
                                .map(|&d| Json::Num(d))
                                .collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let sta: Vec<Json> = (0..ch.endpoint_count())
        .map(|e| Json::Num(ch.sta_endpoint_delay_ps(e)))
        .collect();
    Json::obj([
        ("vdd", Json::Num(ch.vdd())),
        ("width", Json::Num(ch.endpoint_count() as f64)),
        ("cycles_per_op", Json::Num(ch.cycles_per_op() as f64)),
        ("sta_endpoint_delays_ps", Json::Arr(sta)),
        ("cdfs", Json::Arr(cdfs)),
    ])
}

fn finite_f64_array(value: &Json) -> Option<Vec<f64>> {
    value
        .as_arr()?
        .iter()
        .map(|v| v.as_f64().filter(|d| d.is_finite()))
        .collect()
}

fn characterization_from_json(value: &Json) -> Option<TimingCharacterization> {
    let vdd = value.get("vdd")?.as_f64().filter(|v| v.is_finite())?;
    let width = value.get("width")?.as_u64()? as usize;
    let cycles_per_op = value.get("cycles_per_op")?.as_u64()? as usize;
    let sta = finite_f64_array(value.get("sta_endpoint_delays_ps")?)?;
    if sta.len() != width {
        return None;
    }
    let rows = value.get("cdfs")?.as_arr()?;
    if rows.len() != AluOp::ALL.len() {
        return None;
    }
    let mut cdfs: Vec<Vec<ErrorCdf>> = Vec::with_capacity(rows.len());
    for row in rows {
        let endpoints = row.as_arr()?;
        if endpoints.len() != width {
            return None;
        }
        let row: Option<Vec<ErrorCdf>> = endpoints
            .iter()
            .map(|samples| finite_f64_array(samples).map(ErrorCdf::from_samples))
            .collect();
        cdfs.push(row?);
    }
    Some(TimingCharacterization::from_parts(
        vdd,
        width,
        cycles_per_op,
        cdfs,
        sta,
    ))
}

/// Serializes the per-voltage characterizations of `config` to the cache
/// document.
pub fn document(config: &CaseStudyConfig, chars: &[(f64, TimingCharacterization)]) -> Json {
    Json::obj([
        ("version", Json::Num(FORMAT_VERSION as f64)),
        ("fingerprint", Json::Str(config.fingerprint().to_string())),
        (
            "characterizations",
            Json::Arr(
                chars
                    .iter()
                    .map(|(_, ch)| characterization_to_json(ch))
                    .collect(),
            ),
        ),
    ])
}

/// Atomically writes the characterization cache for `config` into `dir`
/// (which is created if missing).
pub fn store(
    dir: &Path,
    config: &CaseStudyConfig,
    chars: &[(f64, TimingCharacterization)],
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = cache_file(dir, config.fingerprint());
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, document(config, chars).to_string())?;
    fs::rename(&tmp, &path)
}

/// Loads the cached characterizations for `config` from `dir`.
///
/// Returns `None` — and the caller re-characterizes — on any mismatch:
/// missing file, parse error, wrong version or fingerprint, or shapes
/// inconsistent with the configuration.
pub fn load(dir: &Path, config: &CaseStudyConfig) -> Option<Vec<(f64, TimingCharacterization)>> {
    let text = fs::read_to_string(cache_file(dir, config.fingerprint())).ok()?;
    let doc = Json::parse(&text).ok()?;
    if doc.get("version").and_then(Json::as_u64) != Some(FORMAT_VERSION) {
        return None;
    }
    if doc.get("fingerprint").and_then(Json::as_u64) != Some(config.fingerprint()) {
        return None;
    }
    let entries = doc.get("characterizations")?.as_arr()?;
    if entries.len() != config.voltages.len() {
        return None;
    }
    let mut chars = Vec::with_capacity(entries.len());
    for (entry, &vdd) in entries.iter().zip(&config.voltages) {
        let ch = characterization_from_json(entry)?;
        // The entry order must match the configured voltages exactly.
        if (ch.vdd() - vdd).abs() > 1e-12
            || ch.endpoint_count() != config.alu_width
            || ch.cycles_per_op() != config.cycles_per_op
        {
            return None;
        }
        chars.push((vdd, ch));
    }
    Some(chars)
}

/// FNV-1a, 64 bit: the hash behind every structural fingerprint (study
/// configurations here, campaign specs in `sfi-campaign`).
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes `bytes` into the state.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Hashes the little-endian bytes of `v` into the state.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::CaseStudy;

    fn temp_cache_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfi_charcache_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn characterizations_identical(a: &TimingCharacterization, b: &TimingCharacterization) -> bool {
        a.vdd() == b.vdd()
            && a.endpoint_count() == b.endpoint_count()
            && a.cycles_per_op() == b.cycles_per_op()
            && (0..a.endpoint_count())
                .all(|e| a.sta_endpoint_delay_ps(e) == b.sta_endpoint_delay_ps(e))
            && AluOp::ALL.iter().all(|&op| {
                (0..a.endpoint_count()).all(|e| a.cdf(op, e).samples() == b.cdf(op, e).samples())
            })
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = CaseStudyConfig::fast_for_tests();
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(base.fingerprint());
        let variants = [
            CaseStudyConfig {
                alu_width: base.alu_width + 1,
                ..base.clone()
            },
            CaseStudyConfig {
                cycles_per_op: base.cycles_per_op + 1,
                ..base.clone()
            },
            CaseStudyConfig {
                seed: base.seed ^ 1,
                ..base.clone()
            },
            CaseStudyConfig {
                voltages: vec![0.7, 0.8],
                ..base.clone()
            },
            CaseStudyConfig {
                target_fmax_mhz: base.target_fmax_mhz + 1.0,
                ..base.clone()
            },
        ];
        for v in variants {
            assert!(
                seen.insert(v.fingerprint()),
                "fingerprint collision for {v:?}"
            );
        }
        // Same config, same fingerprint.
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }

    #[test]
    fn cache_round_trip_is_bit_identical() {
        let config = CaseStudyConfig::fast_for_tests();
        let study = CaseStudy::build(config.clone());
        let chars: Vec<(f64, TimingCharacterization)> = config
            .voltages
            .iter()
            .map(|&v| (v, study.characterization(v).clone()))
            .collect();

        let dir = temp_cache_dir("roundtrip");
        store(&dir, &config, &chars).expect("cache writes");
        let restored = load(&dir, &config).expect("cache loads");
        assert_eq!(restored.len(), chars.len());
        for ((_, a), (_, b)) in chars.iter().zip(&restored) {
            assert!(characterizations_identical(a, b));
        }

        // A different configuration must not load this cache.
        let other = CaseStudyConfig {
            seed: config.seed ^ 1,
            ..config.clone()
        };
        assert!(load(&dir, &other).is_none());

        // Corruption is detected, not trusted.
        fs::write(cache_file(&dir, config.fingerprint()), "{not json").expect("overwrite");
        assert!(load(&dir, &config).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_cached_is_warm_on_the_second_start() {
        let config = CaseStudyConfig::fast_for_tests();
        let dir = temp_cache_dir("build");

        let cold = CaseStudy::build_cached(config.clone(), &dir);
        assert!(!cold.characterization_cache_hit(), "first build is cold");
        assert!(
            cache_file(&dir, config.fingerprint()).exists(),
            "the cold build must leave a cache behind"
        );

        let warm = CaseStudy::build_cached(config.clone(), &dir);
        assert!(warm.characterization_cache_hit(), "second build is warm");
        for &v in &config.voltages {
            assert!(characterizations_identical(
                cold.characterization(v),
                warm.characterization(v)
            ));
        }
        assert_eq!(cold.sta_limit_mhz(0.7), warm.sta_limit_mhz(0.7));

        // The uncached entry point never reports a hit.
        assert!(!CaseStudy::build(config).characterization_cache_hit());
        let _ = fs::remove_dir_all(&dir);
    }
}
