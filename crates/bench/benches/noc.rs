//! Microbenchmarks for the crossbar: arbitration throughput under uniform
//! load with one and two virtual channels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pimsim_noc::Crossbar;
use pimsim_types::{
    AppId, PhysAddr, PimCommand, PimOpKind, Request, RequestId, RequestKind, VcMode,
};

fn mem_req(id: u64, src: u16) -> Request {
    Request::new(
        RequestId(id),
        AppId::GPU,
        RequestKind::MemRead,
        PhysAddr(id * 32),
        src,
        0,
    )
}

fn pim_req(id: u64, src: u16) -> Request {
    let cmd = PimCommand {
        op: PimOpKind::RfLoad,
        channel: (id % 32) as u16,
        row: 0,
        col: 0,
        rf_entry: 0,
        block_start: false,
        block_id: id,
    };
    Request::new(
        RequestId(id),
        AppId::PIM,
        RequestKind::Pim(cmd),
        PhysAddr(0),
        src,
        0,
    )
}

fn drive(vc: VcMode, cycles: u64) -> u64 {
    let mut x = Crossbar::new(80, 32, 512, vc);
    let mut id = 0u64;
    let mut delivered = 0u64;
    for now in 0..cycles {
        for sm in 0..80u16 {
            let req = if sm < 8 {
                pim_req(id, sm)
            } else {
                mem_req(id, sm)
            };
            let dest = (id % 32) as usize;
            if x.can_inject(sm as usize, req.kind.is_pim()) {
                x.try_inject(sm as usize, req, dest).unwrap();
                id += 1;
            }
        }
        x.step(now, |_, _, _| {
            delivered += 1;
            true
        });
    }
    delivered
}

fn bench_crossbar(c: &mut Criterion) {
    let mut g = c.benchmark_group("crossbar");
    g.bench_function("80x32_vc1_1k_cycles", |b| {
        b.iter(|| black_box(drive(VcMode::Shared, 1000)))
    });
    g.bench_function("80x32_vc2_1k_cycles", |b| {
        b.iter(|| black_box(drive(VcMode::SplitPim, 1000)))
    });
    g.finish();
}

criterion_group!(benches, bench_crossbar);
criterion_main!(benches);
