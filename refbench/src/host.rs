//! Host fingerprint carried by every result, and peak memory.
//!
//! Two runs are comparable only when their fingerprints match: the
//! scalar and avx2fma kernel backends pick different architectures and
//! differ several-fold in serving latency, and core count and CPU model
//! move every timing.

use optinter_tensor::kernels::{self, Backend};

/// What a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// CPU brand string.
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Active matmul kernel backend.
    pub backend: String,
    /// SIMD features compiled in (`build:`) and detected at run time
    /// (`host:`).
    pub target_features: String,
}

impl Fingerprint {
    /// Fingerprint of this process on this host.
    pub fn detect() -> Self {
        Self {
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: kernels::active().name().to_string(),
            target_features: target_features(),
        }
    }

    /// `(key, value)` pairs in a fixed order, for records and printing.
    pub fn fields(&self) -> [(&'static str, String); 4] {
        [
            ("cpu_model", self.cpu_model.clone()),
            ("nproc", self.nproc.to_string()),
            ("backend", self.backend.clone()),
            ("target_features", self.target_features.clone()),
        ]
    }

    /// Rebuilds a fingerprint from [`Fingerprint::fields`] pairs; `None`
    /// when a field is missing or malformed.
    pub fn from_fields<'a>(mut get: impl FnMut(&str) -> Option<&'a str>) -> Option<Self> {
        Some(Self {
            cpu_model: get("cpu_model")?.to_string(),
            nproc: get("nproc")?.parse().ok()?,
            backend: get("backend")?.to_string(),
            target_features: get("target_features")?.to_string(),
        })
    }

    /// The fields on which `self` and `other` differ (empty: comparable).
    pub fn mismatches(&self, other: &Self) -> Vec<&'static str> {
        self.fields()
            .iter()
            .zip(other.fields().iter())
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, _)| a.0)
            .collect()
    }
}

/// The backend the host's CPU detection picks (ignoring any environment
/// override), so every run measures the same default.
pub fn detected_backend() -> Backend {
    if Backend::AvxFma.is_supported() {
        Backend::AvxFma
    } else {
        Backend::Scalar
    }
}

#[cfg(target_arch = "x86_64")]
fn target_features() -> String {
    use std::arch::is_x86_feature_detected as detected;
    let build = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("f16c", cfg!(target_feature = "f16c")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ];
    let host = [
        ("sse4.2", detected!("sse4.2")),
        ("avx", detected!("avx")),
        ("avx2", detected!("avx2")),
        ("fma", detected!("fma")),
        ("f16c", detected!("f16c")),
        ("avx512f", detected!("avx512f")),
    ];
    let on = |fs: &[(&str, bool)]| {
        let names: Vec<&str> = fs.iter().filter(|f| f.1).map(|f| f.0).collect();
        names.join(",")
    };
    format!("build:{} host:{}", on(&build), on(&host))
}

#[cfg(not(target_arch = "x86_64"))]
fn target_features() -> String {
    format!("arch:{}", std::env::consts::ARCH)
}

/// CPU brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID is available on every x86-64 CPU, and leaf
    // 0x8000_0000 reports the highest extended leaf before any is read.
    #[allow(unused_unsafe)]
    let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_ext < 0x8000_0004 {
        return String::from("unknown-x86_64");
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: as above; the leaf is within the reported range.
        #[allow(unused_unsafe)]
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    format!("unknown-{}", std::env::consts::ARCH)
}

/// Peak resident set size of this process in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words) then 14
    // longs, the first of which is `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    // SAFETY: `usage` is 144 writable bytes, the size of `struct rusage`
    // on 64-bit Linux; RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    usage[4] as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            cpu_model: "Some CPU".into(),
            nproc: 2,
            backend: "avx2fma".into(),
            target_features: "build:avx2,fma host:avx2,fma".into(),
        }
    }

    #[test]
    fn identical_fingerprints_match() {
        assert!(fp().mismatches(&fp()).is_empty());
        let here = Fingerprint::detect();
        assert!(here.mismatches(&here.clone()).is_empty());
        assert!(here.nproc >= 1);
        assert!(!here.cpu_model.is_empty());
    }

    #[test]
    fn any_differing_field_is_reported() {
        let mut other = fp();
        other.backend = "scalar".into();
        other.nproc = 4;
        assert_eq!(fp().mismatches(&other), vec!["nproc", "backend"]);
        let mut cpu = fp();
        cpu.cpu_model = "Other CPU".into();
        assert_eq!(fp().mismatches(&cpu), vec!["cpu_model"]);
    }

    #[test]
    fn fields_round_trip() {
        let f = fp();
        let pairs = f.fields();
        let back = Fingerprint::from_fields(|k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.as_str())
        });
        assert_eq!(back, Some(f));
        assert_eq!(Fingerprint::from_fields(|_| None), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
