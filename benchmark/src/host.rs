//! What the kernel says about this process: CPU time and resident set.

/// Process CPU seconds so far (user + system), from `/proc/self/stat`.
/// Linux reports clock ticks; every supported kernel uses 100 per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    sievestore_types::peak_rss_bytes() as f64 / (1 << 20) as f64
}
