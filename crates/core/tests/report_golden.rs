//! Byte-exact pins of `Report::to_json`. The CI schema gate and every
//! consumer of `nimage bench --json` read this document, so its bytes —
//! key order, escaping, number formatting, `null` for an absent disk tier
//! — must not drift when the code that renders it changes.

use std::collections::BTreeMap;

use nimage_core::{
    CellReport, DiskCacheStats, MemoStats, MetricsSnapshot, Report, ShardStats, StageReport,
    TraceSummary, REPORT_VERSION,
};
use nimage_trace::Histogram;

/// A report with every field populated: names that need escaping, a NaN
/// and an infinite float, both disk tiers present, and metrics of every
/// kind.
fn populated() -> Report {
    let mut metrics = MetricsSnapshot::default();
    metrics.counters.insert("cache.compile.hits".into(), 3);
    metrics.counters.insert("vm.executions".into(), 2);
    metrics.gauges.insert("ratio \"q\"".into(), 0.25);
    metrics.gauges.insert("whole".into(), 2.0);
    metrics.histograms.insert(
        "disk.get_ns".into(),
        Histogram {
            count: 3,
            sum: 10,
            min: 1,
            max: 7,
            buckets: vec![0; 65],
        },
    );
    let disk = |hits, misses, stores, rejected| DiskCacheStats {
        hits,
        misses,
        stores,
        rejected,
    };
    let mut disk_stages = BTreeMap::new();
    disk_stages.insert("compile".to_string(), disk(2, 1, 1, 0));
    disk_stages.insert("order".to_string(), disk(8, 0, 0, 1));
    Report {
        report_version: REPORT_VERSION,
        workloads: vec!["micro\"naut\\\n\t\u{1}é".to_string(), "Bounce".to_string()],
        strategies: vec!["cu".to_string(), "cu+heap path".to_string()],
        threads: 4,
        cells: vec![
            CellReport {
                workload: "micro\"naut\\\n\t\u{1}é".to_string(),
                strategy: "cu".to_string(),
                baseline_faults: (40, 12),
                optimized_faults: (20, 6),
                fault_reduction: 2.0,
                speedup: f64::NAN,
            },
            CellReport {
                workload: "Bounce".to_string(),
                strategy: "cu+heap path".to_string(),
                baseline_faults: (9, 3),
                optimized_faults: (7, 2),
                fault_reduction: 1.3333333333333333,
                speedup: f64::INFINITY,
            },
        ],
        stages: vec![
            StageReport {
                name: "analyze",
                exclusive_ns: 1_500,
                inclusive_ns: 2_000,
                count: 1,
            },
            StageReport {
                name: "run",
                exclusive_ns: 0,
                inclusive_ns: 0,
                count: 0,
            },
        ],
        cache: vec![
            MemoStats {
                name: "compile",
                hits: 3,
                misses: 2,
            },
            MemoStats {
                name: "order",
                hits: 0,
                misses: 8,
            },
        ],
        disk: Some(disk(10, 1, 1, 1)),
        disk_stages: Some(disk_stages),
        lowered_shards: ShardStats {
            lazy: 51,
            eager: 0,
            cus: 98,
        },
        metrics,
        trace: TraceSummary {
            threads: 3,
            events: 412,
            dropped: 5,
        },
    }
}

const POPULATED: &str = concat!(
    r#"{"report_version":1,"workloads":["micro\"naut\\\n\t\u0001é","Bounce"]"#,
    r#","strategies":["cu","cu+heap path"],"threads":4"#,
    r#","cells":[{"workload":"micro\"naut\\\n\t\u0001é","strategy":"cu""#,
    r#","baseline_faults":{"text":40,"svm_heap":12},"optimized_faults":{"text":20"#,
    r#","svm_heap":6},"fault_reduction":2,"speedup":0},{"workload":"Bounce""#,
    r#","strategy":"cu+heap path","baseline_faults":{"text":9,"svm_heap":3}"#,
    r#","optimized_faults":{"text":7,"svm_heap":2},"fault_reduction":1.3333333333333333"#,
    r#","speedup":0}],"stages":[{"name":"analyze","exclusive_ns":1500"#,
    r#","inclusive_ns":2000,"count":1},{"name":"run","exclusive_ns":0,"inclusive_ns":0"#,
    r#","count":0}],"cache":[{"name":"compile","hits":3,"misses":2},{"name":"order""#,
    r#","hits":0,"misses":8}],"disk":{"hits":10,"misses":1,"stores":1,"rejected":1}"#,
    r#","disk_stages":{"compile":{"hits":2,"misses":1,"stores":1,"rejected":0}"#,
    r#","order":{"hits":8,"misses":0,"stores":0,"rejected":1}}"#,
    r#","lowered_shards":{"lazy":51,"eager":0,"cus":98}"#,
    r#","metrics":{"counters":{"cache.compile.hits":3,"vm.executions":2}"#,
    r#","gauges":{"ratio \"q\"":0.25,"whole":2},"histograms":{"disk.get_ns":{"count":3"#,
    r#","sum":10,"min":1,"max":7,"mean":3.3333333333333335}}},"trace":{"threads":3"#,
    r#","events":412,"dropped":5}}"#,
);

const WITHOUT_DISK: &str = concat!(
    r#"{"report_version":1,"workloads":["micro\"naut\\\n\t\u0001é","Bounce"]"#,
    r#","strategies":["cu","cu+heap path"],"threads":4"#,
    r#","cells":[{"workload":"micro\"naut\\\n\t\u0001é","strategy":"cu""#,
    r#","baseline_faults":{"text":40,"svm_heap":12},"optimized_faults":{"text":20"#,
    r#","svm_heap":6},"fault_reduction":2,"speedup":0},{"workload":"Bounce""#,
    r#","strategy":"cu+heap path","baseline_faults":{"text":9,"svm_heap":3}"#,
    r#","optimized_faults":{"text":7,"svm_heap":2},"fault_reduction":1.3333333333333333"#,
    r#","speedup":0}],"stages":[{"name":"analyze","exclusive_ns":1500"#,
    r#","inclusive_ns":2000,"count":1},{"name":"run","exclusive_ns":0,"inclusive_ns":0"#,
    r#","count":0}],"cache":[{"name":"compile","hits":3,"misses":2},{"name":"order""#,
    r#","hits":0,"misses":8}],"disk":null,"disk_stages":null"#,
    r#","lowered_shards":{"lazy":51,"eager":0,"cus":98}"#,
    r#","metrics":{"counters":{"cache.compile.hits":3,"vm.executions":2}"#,
    r#","gauges":{"ratio \"q\"":0.25,"whole":2},"histograms":{"disk.get_ns":{"count":3"#,
    r#","sum":10,"min":1,"max":7,"mean":3.3333333333333335}}},"trace":{"threads":3"#,
    r#","events":412,"dropped":5}}"#,
);

#[test]
fn populated_report_renders_byte_exact_json() {
    assert_eq!(populated().to_json(), POPULATED);
}

#[test]
fn report_without_a_disk_tier_renders_nulls() {
    let mut r = populated();
    r.disk = None;
    r.disk_stages = None;
    assert_eq!(r.to_json(), WITHOUT_DISK);
}
