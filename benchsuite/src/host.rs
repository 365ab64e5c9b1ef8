//! The host a run was measured on, recorded with every result.

/// Host facts that change wall-clock numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// The CPU's brand string.
    pub cpu_model: String,
    /// AES-NI detected at run time (the crypto core's wide-lane path).
    pub aes_ni: bool,
    /// PCLMULQDQ detected at run time (the XTS tweak ladder).
    pub pclmulqdq: bool,
}

/// Detects the current host.
pub fn detect() -> Host {
    Host {
        nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        cpu_model: cpu_model(),
        aes_ni: feature("aes"),
        pclmulqdq: feature("pclmulqdq"),
    }
}

#[cfg(target_arch = "x86_64")]
fn feature(name: &str) -> bool {
    match name {
        "aes" => std::is_x86_feature_detected!("aes"),
        "pclmulqdq" => std::is_x86_feature_detected!("pclmulqdq"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn feature(_name: &str) -> bool {
    false
}

/// The brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    brand.trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}
