//! Lightweight cross-crate tests of the metric definitions, configuration
//! invariants, and workload catalogs — these run fast in debug builds.

use pim_coscheduling::core::policy::PolicyKind;
use pim_coscheduling::gpu::KernelModel;
use pim_coscheduling::sim::Runner;
use pim_coscheduling::stats::metrics::{fairness_index, system_throughput, CoexecMetrics};
use pim_coscheduling::types::{AddressMapConfig, DramTiming, SystemConfig, VcMode};
use pim_coscheduling::workloads::{
    gpu_kernel, pim_kernel,
    pim_suite::{pim_kernel_spec, PimBenchmark},
    rodinia::{figure13_picks, gpu_kernel_params, memory_intensive_picks, GpuBenchmark},
    stream_triad_spec,
};

#[test]
fn fairness_index_matches_paper_equation() {
    // FI = min(s_pim/s_mem, s_mem/s_pim), Equation 1.
    for (a, b) in [(0.25, 0.5), (1.0, 1.0), (0.9, 0.3)] {
        let fi = fairness_index(a, b);
        assert!((fi - (a / b).min(b / a)).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&fi));
    }
    assert_eq!(system_throughput(0.4, 0.9), 1.3);
}

#[test]
fn coexec_metrics_compose() {
    let m = CoexecMetrics {
        mem_speedup: 0.5,
        pim_speedup: 0.8,
    };
    assert!((m.fairness_index() - 0.625).abs() < 1e-12);
    assert!((m.system_throughput() - 1.3).abs() < 1e-12);
}

#[test]
fn table1_configuration_is_self_consistent() {
    let cfg = SystemConfig::default();
    cfg.validate().expect("Table I defaults validate");
    // 32 channels x 16 banks, 6 MB L2, 64-entry MC queues, 512-entry NoC.
    assert_eq!(cfg.dram.channels, 32);
    assert_eq!(cfg.dram.banks, 16);
    assert_eq!(cfg.cache.total_bytes, 6 * 1024 * 1024);
    assert_eq!(cfg.mc.mem_q_entries, 64);
    assert_eq!(cfg.noc.input_queue_entries, 512);
    // PIM shape: 8 FUs/channel sharing 16 banks pairwise, 16 RF entries.
    assert_eq!(cfg.dram.pim_fus_per_channel, 8);
    assert_eq!(cfg.dram.pim_rf_entries, 16);
    // The fidelity extensions must be OFF by default (Table I parity).
    assert_eq!(cfg.timing.t_faw, 0);
    assert_eq!(cfg.timing.t_refi, 0);
    assert_eq!(cfg.noc.islip_iterations, 1);
}

#[test]
fn fidelity_timing_extensions_validate() {
    let cfg = SystemConfig {
        timing: DramTiming::with_fidelity_extensions(),
        ..Default::default()
    };
    cfg.validate().unwrap();
    assert!(cfg.timing.t_faw > 0 && cfg.timing.t_refi > 0);
}

/// 64 banks is the widest geometry the controller's one-word bank masks
/// cover: its all-banks mask must not overflow (debug builds panic on an
/// overflowing shift), and MEM plus PIM traffic must run to completion.
#[test]
fn sixty_four_bank_channels_run_mem_and_pim_traffic() {
    let mut cfg = SystemConfig::default();
    cfg.dram.banks = 64;
    cfg.dram.bank_groups = 4;
    // Keep 8 RF entries per bank, as in Table I (16 entries x 8 FUs / 16).
    cfg.dram.pim_fus_per_channel = 32;
    // Table I's pattern with two row bits turned into bank bits: 6 bank
    // bits for 64 banks, each a quarter as deep.
    cfg.dram.rows_per_bank = 1 << 11;
    cfg.addr_map = AddressMapConfig::BitPattern("RRRRRRRRRRRBBBBBCCCBDDDDDCCC".into());
    cfg.validate().expect("64 banks validate");
    let out = Runner::new(cfg, PolicyKind::f3fs_competitive()).coexec(
        Box::new(gpu_kernel(GpuBenchmark(8), 8, 0.05)),
        Box::new(pim_kernel(PimBenchmark(2), 32, 4, 64, 0.02)),
        true,
    );
    assert!(!out.gpu_starved && !out.pim_starved, "both kernels finish");
    assert!(
        out.mem_arrivals > 0 && out.pim_arrivals > 0,
        "MEM and PIM traffic both reach the controllers: {} / {}",
        out.mem_arrivals,
        out.pim_arrivals
    );
}

#[test]
fn config_validation_rejects_bad_islip_and_vc_combos() {
    let mut cfg = SystemConfig::default();
    cfg.noc.islip_iterations = 0;
    assert!(cfg.validate().is_err());

    let mut cfg = SystemConfig::default();
    cfg.noc.vc_mode = VcMode::SplitPim;
    cfg.noc.input_queue_entries = 1; // cannot cover two VCs
    assert!(cfg.validate().is_err());
}

#[test]
fn ipoly_mapping_validates_and_differs_from_table1() {
    let cfg = SystemConfig {
        addr_map: AddressMapConfig::IPolyHash,
        ..Default::default()
    };
    cfg.validate().unwrap();
    assert_ne!(cfg.addr_map, AddressMapConfig::table1());
}

#[test]
fn workload_catalogs_cover_the_paper_tables() {
    // Table II: 20 GPU kernels with unique names; Table III: 9 PIM kernels.
    assert_eq!(GpuBenchmark::all().len(), 20);
    assert_eq!(PimBenchmark::all().len(), 9);
    let picks = memory_intensive_picks();
    assert!(picks.contains(&GpuBenchmark(4)) && picks.contains(&GpuBenchmark(15)));
    let f13 = figure13_picks();
    assert_eq!(
        f13[0],
        GpuBenchmark(10),
        "G10 is the compute-intensive pick"
    );
}

#[test]
fn all_workloads_build_at_multiple_scales() {
    for scale in [0.05, 0.5, 2.0] {
        for b in GpuBenchmark::all() {
            let k = gpu_kernel(b, 16, scale);
            assert!(k.total_requests() > 0, "{b} at scale {scale}");
        }
        for b in PimBenchmark::all() {
            let k = pim_kernel(b, 32, 4, 64, scale);
            assert!(k.total_requests() > 0, "{b} at scale {scale}");
        }
    }
}

#[test]
fn pim_blocks_are_rf_multiples() {
    // Section II-B: block sizes are multiples of the RF size.
    for b in PimBenchmark::all() {
        let s = pim_kernel_spec(b, 32, 1.0);
        assert_eq!(
            s.ops_per_block % u32::from(s.rf_entries_per_bank),
            0,
            "{b}: block {} not a multiple of RF {}",
            s.ops_per_block,
            s.rf_entries_per_bank
        );
    }
    let triad = stream_triad_spec(32, 1.0);
    assert_eq!(
        triad.ops_per_block % u32::from(triad.rf_entries_per_bank),
        0
    );
}

#[test]
fn policy_catalog_matches_the_paper() {
    let all = PolicyKind::all();
    assert_eq!(all.len(), 9, "eight baselines + F3FS");
    let labels: Vec<&str> = all.iter().map(|p| p.label()).collect();
    for expected in [
        "FCFS",
        "MEM-First",
        "PIM-First",
        "FR-FCFS",
        "FR-FCFS-Cap",
        "BLISS",
        "FR-RR-FCFS",
        "G&I",
        "F3FS",
    ] {
        assert!(labels.contains(&expected), "missing {expected}");
    }
}

#[test]
fn gpu_kernel_params_respect_figure4_extremes() {
    // Re-assert the calibration invariants at the facade level.
    let g4 = gpu_kernel_params(GpuBenchmark(4), 1.0);
    let g10 = gpu_kernel_params(GpuBenchmark(10), 1.0);
    let g15 = gpu_kernel_params(GpuBenchmark(15), 1.0);
    let g17 = gpu_kernel_params(GpuBenchmark(17), 1.0);
    assert!(
        g4.issue_interval < g10.issue_interval,
        "G4 intense, G10 compute"
    );
    assert!(g15.l2_reuse < 0.1, "nn streams with no reuse");
    assert!(g17.row_locality > 0.9, "pathfinder peak RBHR");
}
