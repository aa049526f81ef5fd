//! `analysis` — the closed-form runtime model of Section IV-B and the
//! numerical sweeps behind Figure 5.
//!
//! The model considers a map-only job on a homogeneous cluster of `N`
//! nodes in `R` racks, `L` map slots per node, map time `T`, block size
//! `S`, rack download bandwidth `W`, `F` native blocks under an `(n, k)`
//! code, and a single failed node (so `F/N` degraded tasks, `F/(N·R)`
//! per rack):
//!
//! * normal mode:        `F·T / (N·L)`
//! * locality-first:     `F·T/(N·L) + F/(N·R) · (R−1)·k·S/(R·W) + T`
//! * degraded-first:     `max( F·T/((N−1)·L) + T ,  F/(N·R)·(R−1)·k·S/(R·W) + T )`
//!
//! # Example
//!
//! ```
//! use analysis::ModelParams;
//!
//! let p = ModelParams::paper_default(); // N=40, R=4, L=4, T=20s, (16,12), F=1440, W=1Gbps
//! let lf = p.locality_first_runtime();
//! let df = p.degraded_first_runtime();
//! assert!(df < lf);
//! // The paper reports 15%–43% reductions across its sweeps.
//! let reduction = (lf - df) / lf;
//! assert!(reduction > 0.10 && reduction < 0.45);
//! ```

use serde::{Deserialize, Serialize};

/// Inputs of the Section IV-B model. All times in seconds, sizes in
/// bytes, bandwidth in bits/second.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Nodes in the cluster (`N`).
    pub nodes: usize,
    /// Racks (`R`), nodes evenly spread.
    pub racks: usize,
    /// Map slots per node (`L`).
    pub map_slots: usize,
    /// Map task processing time in seconds (`T`).
    pub map_time_secs: f64,
    /// Block size in bytes (`S`).
    pub block_bytes: u64,
    /// Rack download bandwidth in bits/second (`W`).
    pub rack_bandwidth_bps: u64,
    /// Native blocks processed by the job (`F`).
    pub num_blocks: usize,
    /// Stripe width (`n`).
    pub n: usize,
    /// Data blocks per stripe (`k`).
    pub k: usize,
}

impl ModelParams {
    /// The paper's default setting: `N=40`, `R=4`, `L=4`, `S=128 MB`,
    /// `W=1 Gbps`, `T=20 s`, `F=1440`, `(n,k)=(16,12)`.
    pub fn paper_default() -> ModelParams {
        ModelParams {
            nodes: 40,
            racks: 4,
            map_slots: 4,
            map_time_secs: 20.0,
            block_bytes: 128 * 1024 * 1024,
            rack_bandwidth_bps: 1_000_000_000,
            num_blocks: 1440,
            n: 16,
            k: 12,
        }
    }

    /// Checks that the parameters describe a cluster the model can
    /// price: at least two nodes (one fails), `1 ≤ racks ≤ nodes`,
    /// positive finite slot, time, size and block counts, and
    /// `1 ≤ k < n`.
    ///
    /// # Errors
    ///
    /// The first [`ModelError`] found.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.nodes < 2 {
            return Err(ModelError::TooFewNodes { nodes: self.nodes });
        }
        if self.racks == 0 || self.racks > self.nodes {
            return Err(ModelError::BadRackCount {
                racks: self.racks,
                nodes: self.nodes,
            });
        }
        let positive = [
            ("map_slots", self.map_slots as f64),
            ("map_time_secs", self.map_time_secs),
            ("block_bytes", self.block_bytes as f64),
            ("rack_bandwidth_bps", self.rack_bandwidth_bps as f64),
            ("num_blocks", self.num_blocks as f64),
        ];
        for (field, value) in positive {
            if !(value > 0.0 && value.is_finite()) {
                return Err(ModelError::NotPositive { field, value });
            }
        }
        if self.k == 0 || self.k >= self.n {
            return Err(ModelError::BadCode {
                n: self.n,
                k: self.k,
            });
        }
        Ok(())
    }

    /// Panics on parameters [`ModelParams::validate`] rejects.
    fn check(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Expected inter-rack download seconds of one degraded read:
    /// `(R−1)·k·S / (R·W)`.
    pub fn degraded_read_secs(&self) -> f64 {
        self.check();
        let r = self.racks as f64;
        (r - 1.0) * self.k as f64 * (self.block_bytes as f64 * 8.0)
            / (r * self.rack_bandwidth_bps as f64)
    }

    /// Aggregate inter-rack download seconds of one rack's degraded
    /// tasks: `F/(N·R) · (R−1)·k·S/(R·W)`.
    pub fn per_rack_degraded_download_secs(&self) -> f64 {
        let per_rack_tasks = self.num_blocks as f64 / (self.nodes as f64 * self.racks as f64);
        per_rack_tasks * self.degraded_read_secs()
    }

    /// Normal-mode runtime `F·T/(N·L)`.
    pub fn normal_runtime(&self) -> f64 {
        self.check();
        self.num_blocks as f64 * self.map_time_secs / (self.nodes as f64 * self.map_slots as f64)
    }

    /// Locality-first failure-mode runtime.
    pub fn locality_first_runtime(&self) -> f64 {
        self.normal_runtime() + self.per_rack_degraded_download_secs() + self.map_time_secs
    }

    /// Degraded-first failure-mode runtime.
    pub fn degraded_first_runtime(&self) -> f64 {
        self.check();
        let rounds = self.num_blocks as f64 * self.map_time_secs
            / ((self.nodes - 1) as f64 * self.map_slots as f64);
        let one_round = rounds + self.map_time_secs;
        let bottlenecked = self.per_rack_degraded_download_secs() + self.map_time_secs;
        one_round.max(bottlenecked)
    }

    /// Locality-first runtime normalized over normal mode.
    pub fn locality_first_normalized(&self) -> f64 {
        self.locality_first_runtime() / self.normal_runtime()
    }

    /// Degraded-first runtime normalized over normal mode.
    pub fn degraded_first_normalized(&self) -> f64 {
        self.degraded_first_runtime() / self.normal_runtime()
    }

    /// Relative reduction of degraded-first over locality-first.
    pub fn reduction(&self) -> f64 {
        let lf = self.locality_first_runtime();
        (lf - self.degraded_first_runtime()) / lf
    }
}

/// Why [`ModelParams::validate`] rejected a parameter set.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// Fewer than two nodes: the model fails one and needs a survivor.
    TooFewNodes {
        /// The node count given.
        nodes: usize,
    },
    /// No racks, or more racks than nodes.
    BadRackCount {
        /// The rack count given.
        racks: usize,
        /// The node count given.
        nodes: usize,
    },
    /// A count, time or size is zero, negative or not finite.
    NotPositive {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// Not `1 ≤ k < n`.
    BadCode {
        /// Stripe width.
        n: usize,
        /// Data blocks per stripe.
        k: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::TooFewNodes { nodes } => {
                write!(f, "need at least two nodes, got {nodes}")
            }
            ModelError::BadRackCount { racks, nodes } => {
                write!(f, "bad rack count: {racks} racks for {nodes} nodes")
            }
            ModelError::NotPositive { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ModelError::BadCode { n, k } => write!(f, "bad (n,k) = ({n},{k})"),
        }
    }
}

impl std::error::Error for ModelError {}

/// One sweep point: the varied label plus both normalized runtimes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Human-readable value of the varied parameter.
    pub label: String,
    /// Normalized locality-first runtime.
    pub lf: f64,
    /// Normalized degraded-first runtime.
    pub df: f64,
    /// Relative reduction.
    pub reduction: f64,
}

fn point(label: String, p: &ModelParams) -> SweepPoint {
    SweepPoint {
        label,
        lf: p.locality_first_normalized(),
        df: p.degraded_first_normalized(),
        reduction: p.reduction(),
    }
}

/// Figure 5(a): sweep the erasure coding scheme.
pub fn sweep_schemes(base: &ModelParams, schemes: &[(usize, usize)]) -> Vec<SweepPoint> {
    schemes
        .iter()
        .map(|&(n, k)| {
            let p = ModelParams { n, k, ..*base };
            point(format!("({n},{k})"), &p)
        })
        .collect()
}

/// Figure 5(b): sweep the number of native blocks `F`.
pub fn sweep_blocks(base: &ModelParams, blocks: &[usize]) -> Vec<SweepPoint> {
    blocks
        .iter()
        .map(|&f| {
            let p = ModelParams {
                num_blocks: f,
                ..*base
            };
            point(format!("F={f}"), &p)
        })
        .collect()
}

/// Figure 5(c): sweep the rack download bandwidth `W`.
pub fn sweep_bandwidth(base: &ModelParams, mbps: &[u64]) -> Vec<SweepPoint> {
    mbps.iter()
        .map(|&m| {
            let p = ModelParams {
                rack_bandwidth_bps: m * 1_000_000,
                ..*base
            };
            point(format!("{m}Mbps"), &p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_are_self_consistent() {
        let p = ModelParams::paper_default();
        // Normal runtime: 1440*20/(40*4) = 180s.
        assert!((p.normal_runtime() - 180.0).abs() < 1e-9);
        // Degraded read: (3/4)*12*128MB*8/1Gbps = 9.66s.
        let dr = p.degraded_read_secs();
        assert!((dr - 9.663).abs() < 0.01, "{dr}");
        // Per rack: F/(N*R)=9 tasks * dr.
        assert!((p.per_rack_degraded_download_secs() - 9.0 * dr).abs() < 1e-9);
    }

    #[test]
    fn df_always_at_most_lf() {
        let base = ModelParams::paper_default();
        for (n, k) in [(8, 6), (12, 9), (16, 12), (20, 15)] {
            for f in [720, 1440, 2160, 2880] {
                for w in [100, 250, 500, 1000] {
                    let p = ModelParams {
                        n,
                        k,
                        num_blocks: f,
                        rack_bandwidth_bps: w * 1_000_000,
                        ..base
                    };
                    assert!(
                        p.degraded_first_runtime() <= p.locality_first_runtime() + 1e-9,
                        "DF worse at ({n},{k}) F={f} W={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure5a_reduction_band() {
        // Paper: reductions range 15%–32% across the four schemes.
        let pts = sweep_schemes(
            &ModelParams::paper_default(),
            &[(8, 6), (12, 9), (16, 12), (20, 15)],
        );
        for pt in &pts {
            assert!(
                pt.reduction > 0.13 && pt.reduction < 0.36,
                "{}: reduction {:.3}",
                pt.label,
                pt.reduction
            );
        }
        // LF worsens with k; DF stays flat (one-round case).
        assert!(pts.windows(2).all(|w| w[1].lf >= w[0].lf - 1e-9));
        let df0 = pts[0].df;
        assert!(pts.iter().all(|p| (p.df - df0).abs() < 1e-9));
    }

    #[test]
    fn figure5b_reduction_band() {
        // Paper: 25%–28% for F in 720..2880; normalized runtimes fall
        // with F.
        let pts = sweep_blocks(&ModelParams::paper_default(), &[720, 1440, 2160, 2880]);
        for pt in &pts {
            assert!(
                pt.reduction > 0.22 && pt.reduction < 0.31,
                "{}: reduction {:.3}",
                pt.label,
                pt.reduction
            );
        }
        assert!(pts.windows(2).all(|w| w[1].lf <= w[0].lf + 1e-9));
    }

    #[test]
    fn figure5c_reduction_band() {
        // Paper: 18%–43% for W in 100 Mbps..1 Gbps; DF equal at 500 Mbps
        // and 1 Gbps (one-round case).
        let pts = sweep_bandwidth(&ModelParams::paper_default(), &[100, 250, 500, 1000]);
        for pt in &pts {
            assert!(
                pt.reduction > 0.15 && pt.reduction < 0.46,
                "{}: reduction {:.3}",
                pt.label,
                pt.reduction
            );
        }
        let df_500 = &pts[2];
        let df_1000 = &pts[3];
        assert!((df_500.df - df_1000.df).abs() < 1e-9, "DF should saturate");
    }

    #[test]
    fn normalized_values_exceed_one_in_failure_mode() {
        let p = ModelParams::paper_default();
        assert!(p.locality_first_normalized() > 1.0);
        assert!(p.degraded_first_normalized() > 1.0);
    }

    #[test]
    #[should_panic(expected = "bad (n,k)")]
    fn rejects_bad_code() {
        let p = ModelParams {
            n: 4,
            k: 4,
            ..ModelParams::paper_default()
        };
        let _ = p.normal_runtime();
    }

    #[test]
    fn validate_returns_typed_errors() {
        let base = ModelParams::paper_default();
        assert_eq!(base.validate(), Ok(()));
        let cases = [
            (
                ModelParams { nodes: 1, ..base },
                ModelError::TooFewNodes { nodes: 1 },
            ),
            (
                ModelParams {
                    nodes: 4,
                    racks: 5,
                    ..base
                },
                ModelError::BadRackCount { racks: 5, nodes: 4 },
            ),
            (
                ModelParams {
                    map_slots: 0,
                    ..base
                },
                ModelError::NotPositive {
                    field: "map_slots",
                    value: 0.0,
                },
            ),
            (
                ModelParams { n: 4, k: 0, ..base },
                ModelError::BadCode { n: 4, k: 0 },
            ),
        ];
        for (params, want) in cases {
            assert_eq!(params.validate(), Err(want));
        }
    }

    #[test]
    fn serde_round_trip_shape() {
        let p = ModelParams::paper_default();
        let q = p;
        assert_eq!(p, q);
    }
}
