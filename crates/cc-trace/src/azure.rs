//! Azure Functions trace schema I/O.
//!
//! The real dataset ships as per-minute invocation counts
//! (`HashOwner,HashApp,HashFunction,Trigger,1,2,…,1440`), with execution
//! durations and memory in separate files keyed by the same hashes. This
//! module reads that schema — so a user holding the actual dataset can feed
//! it in — and also round-trips a compact combined schema used to persist
//! synthetic traces.
//!
//! Per the paper's methodology, per-minute counts are expanded to
//! individual arrivals spread **uniformly within each minute**.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use cc_types::{FunctionId, Invocation, MemoryMb, SimDuration, SimTime};

use crate::{Trace, TraceError, TraceFunction};

/// An error reading or writing trace CSV data.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (wrong column count or unparsable number).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The assembled trace violated a [`Trace`] invariant.
    Trace(TraceError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "trace csv i/o error: {e}"),
            CsvError::Malformed { line, reason } => {
                write!(f, "malformed trace csv at line {line}: {reason}")
            }
            CsvError::Trace(e) => write!(f, "invalid trace data: {e}"),
        }
    }
}

impl Error for CsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Trace(e) => Some(e),
            CsvError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<TraceError> for CsvError {
    fn from(e: TraceError) -> Self {
        CsvError::Trace(e)
    }
}

/// Writes a trace in the compact combined schema:
///
/// ```text
/// function_id,mean_exec_ms,memory_mb,c1,c2,…   (counts per minute)
/// ```
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_combined_csv<W: Write>(trace: &Trace, mut writer: W) -> Result<(), CsvError> {
    let minutes = (trace.duration().as_micros() / 60_000_000 + 1) as usize;
    for f in trace.functions() {
        write!(
            writer,
            "{},{},{}",
            f.id.as_u32(),
            f.mean_exec.as_millis(),
            f.memory.as_mb()
        )?;
        let counts = trace.per_minute_counts(f.id);
        for m in 0..minutes {
            let c = counts.get(m).copied().unwrap_or(0.0) as u64;
            write!(writer, ",{c}")?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Reads a trace previously written by [`write_combined_csv`], expanding
/// per-minute counts into uniformly spread arrivals.
///
/// # Errors
///
/// Returns [`CsvError`] on I/O failures, malformed lines, or invalid trace
/// structure.
pub fn read_combined_csv<R: Read>(reader: R) -> Result<Trace, CsvError> {
    let mut functions = Vec::new();
    let mut invocations = Vec::new();
    for line in data_lines(reader, 0) {
        let (line_no, line) = line?;
        let mut cols = line.split(',');
        let id: u32 = parse_col(&mut cols, line_no, "function_id")?;
        let exec_ms: u64 = parse_col(&mut cols, line_no, "mean_exec_ms")?;
        let exec_us = exec_ms
            .checked_mul(1_000)
            .ok_or_else(|| CsvError::Malformed {
                line: line_no,
                reason: format!("mean_exec_ms {exec_ms} exceeds {}", u64::MAX / 1_000),
            })?;
        let mem_mb: u32 = parse_col(&mut cols, line_no, "memory_mb")?;
        let id = FunctionId::new(id);
        functions.push(TraceFunction::new(
            id,
            SimDuration::from_micros(exec_us),
            MemoryMb::new(mem_mb),
        ));
        expand_counts(&mut cols, line_no, id, &mut invocations)?;
    }
    Ok(Trace::new(functions, invocations)?)
}

/// Reads the real Azure invocations-per-minute schema
/// (`HashOwner,HashApp,HashFunction,Trigger,1,…,1440` with a header row),
/// assigning dense ids in file order.
///
/// `durations` and `memory` map `HashFunction` to that function's average
/// execution time and allocated memory (from the companion dataset files);
/// functions missing from the maps receive `default_exec`/`default_memory`.
///
/// # Errors
///
/// Returns [`CsvError`] on I/O failures or malformed lines.
pub fn read_azure_invocations<R: Read>(
    reader: R,
    durations: &HashMap<String, SimDuration>,
    memory: &HashMap<String, MemoryMb>,
    default_exec: SimDuration,
    default_memory: MemoryMb,
) -> Result<Trace, CsvError> {
    let mut functions = Vec::new();
    let mut invocations = Vec::new();
    for line in data_lines(reader, 1) {
        let (line_no, line) = line?;
        let mut cols = line.split(',');
        let _owner = next_col(&mut cols, line_no, "HashOwner")?;
        let _app = next_col(&mut cols, line_no, "HashApp")?;
        let hash_function = next_col(&mut cols, line_no, "HashFunction")?.to_owned();
        let _trigger = next_col(&mut cols, line_no, "Trigger")?;

        let id = FunctionId::new(functions.len() as u32);
        let exec = durations
            .get(&hash_function)
            .copied()
            .unwrap_or(default_exec);
        let mem = memory
            .get(&hash_function)
            .copied()
            .unwrap_or(default_memory);
        functions.push(TraceFunction::new(id, exec, mem));
        expand_counts(&mut cols, line_no, id, &mut invocations)?;
    }
    Ok(Trace::new(functions, invocations)?)
}

/// Reads the Azure *function durations* companion file
/// (`HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum,…`,
/// averages in milliseconds, header row required) into a
/// `HashFunction → duration` map for [`read_azure_invocations`].
///
/// # Errors
///
/// Returns [`CsvError`] on I/O failures or malformed lines, including an
/// `Average` that is not a finite, non-negative number.
pub fn read_azure_durations<R: Read>(reader: R) -> Result<HashMap<String, SimDuration>, CsvError> {
    let mut out = HashMap::new();
    for line in data_lines(reader, 1) {
        let (line_no, line) = line?;
        let mut cols = line.split(',');
        let _owner = next_col(&mut cols, line_no, "HashOwner")?;
        let _app = next_col(&mut cols, line_no, "HashApp")?;
        let function = next_col(&mut cols, line_no, "HashFunction")?.to_owned();
        let avg_ms = parse_average(&mut cols, line_no, "Average", f64::INFINITY)?;
        out.insert(function, SimDuration::from_secs_f64(avg_ms / 1e3));
    }
    Ok(out)
}

/// Reads the Azure *application memory* companion file
/// (`HashOwner,HashApp,SampleCount,AverageAllocatedMb,…`, header row
/// required) into a `HashApp → memory` map.
///
/// The memory dataset is keyed by application rather than function; use
/// [`app_memory_to_function_memory`] to translate it through the
/// invocation file's function→app association. Averages below 1 MB
/// round up to 1 MB.
///
/// # Errors
///
/// Returns [`CsvError`] on I/O failures or malformed lines, including an
/// `AverageAllocatedMb` that is not a finite number in `[0, u32::MAX]`.
pub fn read_azure_app_memory<R: Read>(reader: R) -> Result<HashMap<String, MemoryMb>, CsvError> {
    let mut out = HashMap::new();
    for line in data_lines(reader, 1) {
        let (line_no, line) = line?;
        let mut cols = line.split(',');
        let _owner = next_col(&mut cols, line_no, "HashOwner")?;
        let app = next_col(&mut cols, line_no, "HashApp")?.to_owned();
        let _samples = next_col(&mut cols, line_no, "SampleCount")?;
        let avg_mb = parse_average(&mut cols, line_no, "AverageAllocatedMb", u32::MAX.into())?;
        out.insert(app, MemoryMb::new(avg_mb.max(1.0).round() as u32));
    }
    Ok(out)
}

/// Translates an app-keyed memory map into a function-keyed one using the
/// `HashFunction → HashApp` association (column 3 → column 2 of the
/// invocations file).
pub fn app_memory_to_function_memory(
    function_to_app: &HashMap<String, String>,
    app_memory: &HashMap<String, MemoryMb>,
) -> HashMap<String, MemoryMb> {
    function_to_app
        .iter()
        .filter_map(|(function, app)| app_memory.get(app).map(|&mem| (function.clone(), mem)))
        .collect()
}

/// The most arrivals one minute may hold: one per microsecond, the
/// resolution arrivals are placed at. It also keeps the spread's
/// `60_000_000 × (2j+1)` far below `u64::MAX`.
const MAX_PER_MINUTE: u64 = 60_000_000;

/// Expands the remaining columns (per-minute counts) into arrivals spread
/// uniformly within each minute.
fn expand_counts<'a, I: Iterator<Item = &'a str>>(
    cols: &mut I,
    line_no: usize,
    id: FunctionId,
    out: &mut Vec<Invocation>,
) -> Result<(), CsvError> {
    let malformed = |reason: String| CsvError::Malformed {
        line: line_no,
        reason,
    };
    for (minute, col) in cols.enumerate() {
        let count: u64 = col
            .trim()
            .parse()
            .map_err(|_| malformed(format!("bad count {col:?} at minute {minute}")))?;
        if count > MAX_PER_MINUTE {
            return Err(malformed(format!(
                "count {count} at minute {minute} exceeds {MAX_PER_MINUTE} (one per microsecond)"
            )));
        }
        let minute_start = SimTime::ZERO + SimDuration::from_mins(minute as u64);
        for j in 0..count {
            // Uniform spread: arrival j of k lands at (2j+1)/(2k) of the
            // minute, keeping arrivals strictly inside the interval.
            let offset_us = (60_000_000u64 * (2 * j + 1)) / (2 * count);
            out.push(Invocation::new(
                id,
                minute_start + SimDuration::from_micros(offset_us),
            ));
        }
    }
    Ok(())
}

/// The non-blank lines of `reader` after its first `headers` lines, each
/// with its 1-based line number.
fn data_lines<R: Read>(
    reader: R,
    headers: usize,
) -> impl Iterator<Item = Result<(usize, String), CsvError>> {
    let lines = BufReader::new(reader).lines().enumerate().skip(headers);
    lines.filter_map(|(idx, line)| match line {
        Ok(line) if line.trim().is_empty() => None,
        Ok(line) => Some(Ok((idx + 1, line))),
        Err(e) => Some(Err(e.into())),
    })
}

fn next_col<'a, I: Iterator<Item = &'a str>>(
    cols: &mut I,
    line: usize,
    name: &str,
) -> Result<&'a str, CsvError> {
    cols.next().ok_or_else(|| CsvError::Malformed {
        line,
        reason: format!("missing column {name}"),
    })
}

fn parse_col<'a, T: std::str::FromStr, I: Iterator<Item = &'a str>>(
    cols: &mut I,
    line: usize,
    name: &str,
) -> Result<T, CsvError> {
    let raw = next_col(cols, line, name)?;
    raw.trim().parse().map_err(|_| CsvError::Malformed {
        line,
        reason: format!("bad {name}: {raw:?}"),
    })
}

/// Parses the next column as an average: a finite float in `[0, max]`.
fn parse_average<'a, I: Iterator<Item = &'a str>>(
    cols: &mut I,
    line: usize,
    name: &str,
    max: f64,
) -> Result<f64, CsvError> {
    let value: f64 = parse_col(cols, line, name)?;
    let reason = if !value.is_finite() || value < 0.0 {
        format!("{name} {value} is not a finite, non-negative number")
    } else if value > max {
        format!("{name} {value} exceeds {max}")
    } else {
        return Ok(value);
    };
    Err(CsvError::Malformed { line, reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticTrace;

    #[test]
    fn combined_roundtrip_preserves_minute_structure() {
        let trace = SyntheticTrace::builder()
            .functions(10)
            .duration(SimDuration::from_mins(30))
            .seed(2)
            .build();
        let mut buf = Vec::new();
        write_combined_csv(&trace, &mut buf).unwrap();
        let back = read_combined_csv(&buf[..]).unwrap();

        assert_eq!(back.functions().len(), trace.functions().len());
        // Per-minute counts are preserved exactly (arrival sub-positions
        // within a minute are re-spread uniformly).
        for f in trace.functions() {
            assert_eq!(
                trace.per_minute_counts(f.id),
                back.per_minute_counts(f.id),
                "counts mismatch for {}",
                f.id
            );
            let g = back.function(f.id);
            // Exec time is persisted at millisecond granularity.
            assert_eq!(g.mean_exec.as_millis(), f.mean_exec.as_millis());
            assert_eq!(g.memory, f.memory);
        }
    }

    #[test]
    fn reads_azure_schema() {
        let csv = "\
HashOwner,HashApp,HashFunction,Trigger,1,2,3
o1,a1,f1,http,2,0,1
o1,a1,f2,timer,0,1,0
";
        let mut durations = HashMap::new();
        durations.insert("f1".to_owned(), SimDuration::from_secs(4));
        let memory = HashMap::new();
        let trace = read_azure_invocations(
            csv.as_bytes(),
            &durations,
            &memory,
            SimDuration::from_secs(1),
            MemoryMb::new(128),
        )
        .unwrap();
        assert_eq!(trace.functions().len(), 2);
        assert_eq!(trace.invocations().len(), 4);
        // f1 got its duration from the map; f2 got the default.
        assert_eq!(
            trace.function(FunctionId::new(0)).mean_exec,
            SimDuration::from_secs(4)
        );
        assert_eq!(
            trace.function(FunctionId::new(1)).mean_exec,
            SimDuration::from_secs(1)
        );
        // Counts land in the right minutes.
        assert_eq!(
            trace.per_minute_counts(FunctionId::new(0)),
            vec![2.0, 0.0, 1.0]
        );
    }

    #[test]
    fn uniform_spread_stays_inside_minute() {
        let csv = "h,h,h,t,4\no,a,f,http,4\n";
        let trace = read_azure_invocations(
            csv.as_bytes(),
            &HashMap::new(),
            &HashMap::new(),
            SimDuration::from_secs(1),
            MemoryMb::new(128),
        )
        .unwrap();
        for inv in trace.invocations() {
            assert!(inv.arrival < SimTime::ZERO + SimDuration::from_mins(1));
        }
        // Four arrivals, evenly spaced 15s apart starting at 7.5s.
        let arrivals: Vec<u64> = trace
            .invocations()
            .iter()
            .map(|i| i.arrival.as_micros())
            .collect();
        assert_eq!(
            arrivals,
            vec![7_500_000, 22_500_000, 37_500_000, 52_500_000]
        );
    }

    #[test]
    fn malformed_count_is_reported_with_line() {
        let csv = "0,1000,128,2,x\n";
        let err = read_combined_csv(csv.as_bytes()).unwrap_err();
        match err {
            CsvError::Malformed { line, reason } => {
                assert_eq!(line, 1);
                assert!(reason.contains('x'));
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// Asserts `result` is a `Malformed` error on `line` naming `needle`.
    fn assert_malformed(result: Result<Trace, CsvError>, line: usize, needle: &str) {
        match result {
            Err(CsvError::Malformed { line: at, reason }) => {
                assert_eq!(at, line, "{reason}");
                assert!(reason.contains(needle), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn a_count_above_one_per_microsecond_is_malformed() {
        // 2^63 once wrapped `2 * count` to 0 and divided by it.
        let combined = "0,1,1,5,9223372036854775808\n";
        assert_malformed(
            read_combined_csv(combined.as_bytes()),
            1,
            "count 9223372036854775808 at minute 1",
        );
        let azure = "h,h,h,t,1\no,a,f,http,60000001\n";
        let read = read_azure_invocations(
            azure.as_bytes(),
            &HashMap::new(),
            &HashMap::new(),
            SimDuration::from_secs(1),
            MemoryMb::new(128),
        );
        assert_malformed(read, 2, "count 60000001 at minute 0");
    }

    #[test]
    fn a_mean_exec_past_the_microsecond_range_is_malformed() {
        // u64::MAX / 1000 + 1 milliseconds overflowed the conversion.
        let combined = "0,18446744073709552,1,1\n";
        assert_malformed(
            read_combined_csv(combined.as_bytes()),
            1,
            "mean_exec_ms 18446744073709552",
        );
        let largest = "0,18446744073709551,1,1\n";
        let trace = read_combined_csv(largest.as_bytes()).unwrap();
        assert_eq!(
            trace.function(FunctionId::new(0)).mean_exec.as_millis(),
            u64::MAX / 1_000
        );
    }

    #[test]
    fn missing_column_is_reported() {
        let csv = "0,1000\n";
        assert!(matches!(
            read_combined_csv(csv.as_bytes()),
            Err(CsvError::Malformed { .. })
        ));
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let trace = read_combined_csv(&b""[..]).unwrap();
        assert!(trace.functions().is_empty());
        assert!(trace.invocations().is_empty());
    }

    #[test]
    fn reads_durations_companion_file() {
        let csv = "\
HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum
o1,a1,f1,2500.0,10,100,9000
o1,a1,f2,150.5,3,150,151
";
        let durations = read_azure_durations(csv.as_bytes()).unwrap();
        assert_eq!(durations.len(), 2);
        assert_eq!(durations["f1"], SimDuration::from_millis(2500));
        assert_eq!(durations["f2"].as_micros(), 150_500);
    }

    #[test]
    fn reads_app_memory_companion_file() {
        let csv = "\
HashOwner,HashApp,SampleCount,AverageAllocatedMb
o1,a1,120,312.7
o1,a2,5,0.2
";
        let memory = read_azure_app_memory(csv.as_bytes()).unwrap();
        assert_eq!(memory["a1"], MemoryMb::new(313));
        // Sub-MiB allocations clamp up to 1 MiB.
        assert_eq!(memory["a2"], MemoryMb::new(1));
    }

    #[test]
    fn app_memory_translates_to_functions() {
        let mut f2a = HashMap::new();
        f2a.insert("f1".to_owned(), "a1".to_owned());
        f2a.insert("f2".to_owned(), "a1".to_owned());
        f2a.insert("orphan".to_owned(), "missing-app".to_owned());
        let mut mem = HashMap::new();
        mem.insert("a1".to_owned(), MemoryMb::new(256));
        let per_fn = app_memory_to_function_memory(&f2a, &mem);
        assert_eq!(per_fn.len(), 2);
        assert_eq!(per_fn["f1"], MemoryMb::new(256));
        assert_eq!(per_fn["f2"], MemoryMb::new(256));
    }

    #[test]
    fn malformed_duration_average_is_reported() {
        let csv = "h\no,a,f,not-a-number,1,1,1\n";
        assert!(matches!(
            read_azure_durations(csv.as_bytes()),
            Err(CsvError::Malformed { line: 2, .. })
        ));
    }

    /// Asserts `result` is a `Malformed` error on `line` naming `needle`.
    fn assert_malformed_map<V: fmt::Debug>(
        result: Result<HashMap<String, V>, CsvError>,
        line: usize,
        needle: &str,
    ) {
        match result {
            Err(CsvError::Malformed { line: at, reason }) => {
                assert_eq!(at, line, "{reason}");
                assert!(reason.contains(needle), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_or_negative_averages_are_malformed() {
        for bad in ["NaN", "inf", "-inf", "-1.5"] {
            let durations = format!("h\no,a,f1,1,1\no,a,f2,{bad},1\n");
            assert_malformed_map(read_azure_durations(durations.as_bytes()), 3, "Average");
            let memory = format!("h\no,a1,1,64\no,a2,1,{bad}\n");
            assert_malformed_map(
                read_azure_app_memory(memory.as_bytes()),
                3,
                "AverageAllocatedMb",
            );
        }
        // Memory must fit a u32 count of megabytes; its largest value does.
        let huge = "h\no,a,1,4294967296\n";
        assert_malformed_map(
            read_azure_app_memory(huge.as_bytes()),
            2,
            "AverageAllocatedMb",
        );
        let largest = "h\no,a,1,4294967295\n";
        let memory = read_azure_app_memory(largest.as_bytes()).unwrap();
        assert_eq!(memory["a"], MemoryMb::new(u32::MAX));
        // Zero is a valid average: no time, and memory rounds up to 1 MB.
        let zero = read_azure_durations("h\no,a,f,0\n".as_bytes()).unwrap();
        assert_eq!(zero["f"], SimDuration::ZERO);
        let zero = read_azure_app_memory("h\no,a,1,0\n".as_bytes()).unwrap();
        assert_eq!(zero["a"], MemoryMb::new(1));
    }

    #[test]
    fn full_azure_pipeline_combines_all_three_files() {
        let invocations = "\
HashOwner,HashApp,HashFunction,Trigger,1,2
o1,a1,f1,http,1,2
o1,a2,f2,timer,0,1
";
        let durations_csv = "\
HashOwner,HashApp,HashFunction,Average,Count
o1,a1,f1,3000,5
";
        let memory_csv = "\
HashOwner,HashApp,SampleCount,AverageAllocatedMb
o1,a1,9,512
o1,a2,9,128
";
        let durations = read_azure_durations(durations_csv.as_bytes()).unwrap();
        let app_memory = read_azure_app_memory(memory_csv.as_bytes()).unwrap();
        let mut f2a = HashMap::new();
        f2a.insert("f1".to_owned(), "a1".to_owned());
        f2a.insert("f2".to_owned(), "a2".to_owned());
        let memory = app_memory_to_function_memory(&f2a, &app_memory);

        let trace = read_azure_invocations(
            invocations.as_bytes(),
            &durations,
            &memory,
            SimDuration::from_secs(1),
            MemoryMb::new(128),
        )
        .unwrap();
        assert_eq!(trace.functions().len(), 2);
        assert_eq!(
            trace.function(FunctionId::new(0)).mean_exec,
            SimDuration::from_secs(3)
        );
        assert_eq!(
            trace.function(FunctionId::new(0)).memory,
            MemoryMb::new(512)
        );
        assert_eq!(
            trace.function(FunctionId::new(1)).memory,
            MemoryMb::new(128)
        );
        assert_eq!(trace.invocations().len(), 4);
    }
}
