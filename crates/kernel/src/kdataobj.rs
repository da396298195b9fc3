//! The kernel data segment.
//!
//! Most values are emitted directly from the build configuration; the
//! loader pokes only what depends on the loaded binaries (process
//! table, directory, KTLB directory).

use wrl_isa::asm::Asm;
use wrl_isa::Object;
use wrl_trace::layout::bk;

use crate::build::KernelConfig;
use crate::kdata::{bc_off, dir_off, fd_off, frame_off, proc_off};
use crate::layout;

/// Builds the kernel data object.
pub fn object(cfg: &KernelConfig) -> Object {
    let mut a = Asm::new("kdata");
    a.data();
    a.align4();

    a.global_label("k_cur_proc");
    a.word(-1i32 as u32);
    a.global_label("k_cur_save");
    a.word(0);
    a.global_label("k_resched");
    a.word(0);
    a.global_label("k_ticks");
    a.word(0);
    a.global_label("k_nlive");
    a.word(0); // poked by the loader
    a.global_label("k_server_idx");
    a.word(-1i32 as u32); // poked for Mach

    a.global_label("k_kstack_ptr");
    a.word(0);
    a.global_label("k_kstack");
    a.space(frame_off::SIZE * 8);
    // C stacks for nested service code, topmost first.
    a.space(16 * 1024);
    a.global_label("k_cstack_top");
    a.word(0);

    a.global_label("k_ktrace_bk");
    a.space(bk::SIZE);
    a.global_label("k_ktrace_regs");
    // Initial kernel xreg1: main buffer or bit bucket.
    if cfg.traced {
        a.word(layout::KTRACE_BUF);
    } else {
        a.word_sym("k_bitbucket", 0);
    }
    a.word(0);
    a.word(0);
    a.global_label("k_trace_on");
    a.word(u32::from(cfg.traced));
    a.global_label("k_cfg_buf_base");
    a.word(layout::KTRACE_BUF);
    a.global_label("k_cfg_soft_end");
    a.word(layout::KTRACE_BUF + cfg.ktrace_bytes - layout::KTRACE_SLACK);
    a.global_label("k_cfg_hard_end");
    a.word(layout::KTRACE_BUF + cfg.ktrace_bytes);
    a.global_label("k_cfg_clock");
    // §4.1: the traced system's clock ticks at 1/Nth the rate.
    let dilation = if cfg.traced {
        layout::CLOCK_DILATION
    } else {
        1
    };
    a.word(layout::CLOCK_INTERVAL * dilation);
    a.global_label("k_bb_base");
    a.word_sym("k_bitbucket", 0);
    a.global_label("k_bb_soft");
    a.word_sym("k_bitbucket", 64 * 1024);
    a.global_label("k_bb_hard");
    a.word_sym("k_bitbucket", 126 * 1024);
    a.global_label("k_bitbucket");
    a.space(128 * 1024);

    a.global_label("k_ktlb_dir");
    a.space(layout::MAX_PROCS as u32 * 512 * 4);

    a.global_label("k_proc");
    a.space(layout::MAX_PROCS as u32 * proc_off::SIZE);

    a.global_label("k_bcache");
    for i in 0..layout::BCACHE_ENTRIES {
        a.word(-1i32 as u32); // BLOCK
        a.word(layout::BCACHE_PHYS + i * 4096); // FRAME
        a.word(0); // IN_FLIGHT
        a.word(0); // DIRTY
    }
    a.global_label("k_bc_hand");
    a.word(0);

    a.global_label("k_fdtab");
    for _ in 0..fd_off::COUNT {
        a.word(-1i32 as u32);
        a.word(0);
    }

    a.global_label("k_fs_dir");
    a.space(dir_off::COUNT * dir_off::SIZE);
    a.global_label("k_fs_next_block");
    a.word(4); // poked by the loader

    for name in [
        "k_disk_busy",
        "k_disk_cur_entry",
        "k_dpend_valid",
        "k_dpend_cmd",
        "k_dpend_block",
        "k_dpend_addr",
        "k_dpend_entry",
        "k_bread_done",
        "k_bread_block",
        "k_bread_cmd",
        "k_ipcq_head",
        "k_ipcq_tail",
    ] {
        a.global_label(name);
        a.word(0);
    }
    a.global_label("k_ipcq");
    a.space(8 * 4);

    // Per-slot trace-page PTE lists (17 entries each): the dispatch
    // path maps these into the page table so each thread sees its own
    // trace pages at the fixed virtual addresses (§3.6).
    a.global_label("k_tpte");
    a.space(layout::MAX_PROCS as u32 * 17 * 4);
    // Next free thread trace-frame set in the loader-staged pool.
    a.global_label("k_tpool_next");
    a.word(0);

    let _ = bc_off::SIZE; // layout sanity references
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_object_defines_the_kernel_globals() {
        let o = object(&KernelConfig::ultrix().traced());
        for s in ["k_cur_proc", "k_proc", "k_bcache", "k_fs_dir", "k_ipcq"] {
            assert!(o.symbol(s).is_some(), "missing {s}");
        }
        assert!(o.text.is_empty());
        assert!(o.data.len() > 160 * 1024);
    }
}
