//! Kernel-only replays: the `CompiledBus` calls the engine makes for
//! an analysis, made directly and timed one by one, so the CAN
//! kernel's share of a batch can be charged inside an engine span.
//!
//! A point without a permutation is one `solve_point` on tables
//! compiled once per base; the workspace carries warm-start state the
//! way the engine's per-thread workspace does. A permuted point is one
//! `CompiledBus::reordered` plus either an incremental solve against
//! its bucket's anchor report or, without an anchor, a cold `solve`.

use crate::common::secs;
use carta_can::compiled::{CompiledBus, RtaWorkspace, SolvePoint};
use carta_can::error_model::ErrorModel;
use carta_can::network::CanNetwork;
use carta_can::rta::{AnalysisConfig, BusReport};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Kernel {
    pub compile_us: Vec<f64>,
    /// `solve_point` calls that warm-started no message.
    pub cold_us: Vec<f64>,
    /// `solve_point` calls that warm-started at least one message.
    pub warm_us: Vec<f64>,
    /// Solves of permuted points (incremental or cold).
    pub permuted_us: Vec<f64>,
    /// Fixpoint iterations of the `solve_point` calls.
    pub iterations: u64,
}

impl Kernel {
    /// Every replayed kernel call, µs.
    pub fn total_us(&self) -> f64 {
        [
            &self.compile_us,
            &self.cold_us,
            &self.warm_us,
            &self.permuted_us,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum()
    }

    /// Adds another replay's timings to this one's.
    pub fn extend(&mut self, other: Kernel) {
        self.compile_us.extend(other.compile_us);
        self.cold_us.extend(other.cold_us);
        self.warm_us.extend(other.warm_us);
        self.permuted_us.extend(other.permuted_us);
        self.iterations += other.iterations;
    }

    pub fn compile(&mut self, net: &CanNetwork, config: &AnalysisConfig) -> CompiledBus {
        let t0 = Instant::now();
        let compiled = CompiledBus::compile(net, config.stuffing).expect("network compiles");
        self.compile_us.push(secs(t0.elapsed()) * 1e6);
        compiled
    }

    /// One `solve_point`; returns the report and its time, µs.
    pub fn solve(
        &mut self,
        compiled: &CompiledBus,
        point: &SolvePoint,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        ws: &mut RtaWorkspace,
    ) -> (BusReport, f64) {
        let t0 = Instant::now();
        let report = compiled.solve_point(point, errors, config, ws);
        let us = secs(t0.elapsed()) * 1e6;
        let stats = ws.last_stats();
        self.iterations += stats.iterations;
        if stats.warm_messages > 0 {
            self.warm_us.push(us);
        } else {
            self.cold_us.push(us);
        }
        (report, us)
    }

    /// One permuted point: `net` carries the permuted identifiers.
    /// Returns the report, the reordered tables' higher-priority sets
    /// (for use as an anchor) and the time of both calls, µs.
    pub fn permuted(
        &mut self,
        identity: &CompiledBus,
        net: &CanNetwork,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        anchor: Option<(&BusReport, &[Vec<usize>])>,
    ) -> (BusReport, Vec<Vec<usize>>, f64) {
        let t0 = Instant::now();
        let reordered = identity.reordered(net);
        let t1 = Instant::now();
        let report = match anchor {
            Some((report, hp)) => {
                reordered
                    .solve_incremental(net, errors, config, report, hp)
                    .0
            }
            None => reordered.solve(net, errors, config, &mut RtaWorkspace::new()),
        };
        let t2 = Instant::now();
        self.compile_us.push(secs(t1 - t0) * 1e6);
        self.permuted_us.push(secs(t2 - t1) * 1e6);
        (report, reordered.hp_sets().to_vec(), secs(t2 - t0) * 1e6)
    }
}
