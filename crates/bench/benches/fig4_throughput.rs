//! **Figure 4**: sequential throughput (dd and Bonnie++) across the five
//! configurations — Android FDE, A-T-P, A-T-H, MC-P, MC-H.
//!
//! Paper values (Nexus 4, KB/s, read off the bars): Android dd-Write ≈
//! 15–16 MB/s and dd-Read ≈ 27 MB/s; thin volumes cost ~18 % on reads and
//! little on writes; MobiCeal's modified kernel costs ~18 % on writes and
//! little extra on reads. Bonnie++ mirrors dd.
//!
//! Run with: `cargo bench -p mobiceal-bench --bench fig4_throughput`

use mobiceal_sim::RunningStat;
use mobiceal_workloads::{
    build_stack, render_table, BonnieWorkload, Cell, DdWorkload, StackConfig, Table,
};

const REPEATS: u64 = 10;
const DISK_BLOCKS: u64 = 16384; // 64 MiB at 4 KiB

fn main() {
    let dd = DdWorkload { file_bytes: 8 * 1024 * 1024, chunk_bytes: 256 * 1024 };
    let bonnie = BonnieWorkload { file_bytes: 6 * 1024 * 1024, ..Default::default() };

    let mut table = Table::new(
        "Fig. 4: average sequential throughput in KB/s (mean over 10 runs)",
        &["config", "dd-Write", "dd-Read", "B-Write", "B-Read", "B-Rewrite"],
    );
    let mut dd_write_means = std::collections::HashMap::new();
    let mut dd_read_means = std::collections::HashMap::new();
    for config in StackConfig::all() {
        // One dd run and one Bonnie++ run per seed; every column reads its
        // field from that run.
        let [mut dd_write, mut dd_read, mut bon, mut bon_read, mut bon_rw] =
            std::array::from_fn(|_| RunningStat::new());
        for i in 0..REPEATS {
            let stack = build_stack(config, DISK_BLOCKS, 1000 + i).expect("stack");
            let run = dd.run(stack.device.clone(), &stack.clock).expect("dd run");
            dd_write.push(run.write_kbps);
            dd_read.push(run.read_kbps);
            let stack = build_stack(config, DISK_BLOCKS, 2000 + i).expect("stack");
            let run = bonnie.run(stack.device.clone(), &stack.clock).expect("bonnie run");
            bon.push(run.block_write_kbps);
            bon_read.push(run.block_read_kbps);
            bon_rw.push(run.rewrite_kbps);
        }
        dd_write_means.insert(config.label(), dd_write.mean());
        dd_read_means.insert(config.label(), dd_read.mean());
        table.push_row(vec![
            config.label().into(),
            Cell::Num(dd_write.mean()),
            Cell::Num(dd_read.mean()),
            Cell::Num(bon.mean()),
            Cell::Num(bon_read.mean()),
            Cell::Num(bon_rw.mean()),
        ]);
    }
    println!("{}", render_table(&table));

    // The two headline ratios the paper calls out in §VI-B, computed from
    // the 10-run means (one stored_rand regime per run).
    println!(
        "write: MobiCeal kernel modifications cost {:.1}% vs Android FDE (paper: ~18%)",
        (1.0 - dd_write_means["MC-P"] / dd_write_means["Android"]) * 100.0
    );
    println!(
        "read:  thin-volume layer costs {:.1}% vs Android FDE (paper: ~18%)",
        (1.0 - dd_read_means["A-T-P"] / dd_read_means["Android"]) * 100.0
    );
}
