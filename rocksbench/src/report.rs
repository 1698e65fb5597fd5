//! The result line the benchmark prints last, the human-readable table
//! before it, and the stamped result file.

use crate::{Outcome, RunConfig};
use std::fmt::Write as _;

/// Host and run facts stamped on every result.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: &'static str,
    /// Cores the host offers.
    pub cores: usize,
    /// Threads the workload's measured work used.
    pub threads: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The run's settings.
    pub run: RunConfig,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Replace non-finite values (which JSON cannot carry) with 0 and record
/// each as a failed check.
pub fn sanitize(outcome: &mut Outcome) {
    let bad: Vec<&'static str> =
        outcome.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect();
    for name in bad {
        outcome.gate_failures.push(format!("metric {name} is not a finite number"));
    }
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
}

fn metrics_object(outcome: &Outcome) -> String {
    let mut out = String::from("{");
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(m.name),
            m.value,
            escape(m.unit)
        );
    }
    out.push('}');
    out
}

/// The one-line JSON result: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_object(outcome)
    )
}

/// The stamp as one human-readable line.
pub fn stamp_line(stamp: &Stamp, outcome: &Outcome) -> String {
    format!(
        "# rocksbench workload={} seed={} seconds={} trace={} cores={} threads={} profile={} attempted={} failed={}",
        stamp.workload,
        stamp.run.seed,
        stamp.run.seconds,
        u8::from(stamp.run.trace),
        stamp.cores,
        stamp.threads,
        stamp.profile,
        outcome.attempted,
        outcome.failed
    )
}

/// Every metric with its name and unit, one per line.
pub fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    for m in &outcome.metrics {
        let _ = writeln!(out, "  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for g in &outcome.gate_failures {
        let _ = writeln!(out, "  FAILED CHECK: {g}");
    }
    out
}

/// The stamped result file: the result plus host, run settings and every
/// failed check.
pub fn result_file(stamp: &Stamp, outcome: &Outcome) -> String {
    let failures: Vec<String> =
        outcome.gate_failures.iter().map(|g| format!("\"{}\"", escape(g))).collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"host\": {{\"cores\": {}, \"threads\": {}}},\n  \"profile\": \"{}\",\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"gate_failures\": [{}],\n  \
         \"chunk_rates\": [{}],\n  \"metrics\": {}\n}}\n",
        stamp.workload,
        stamp.run.seed,
        stamp.run.seconds,
        stamp.run.trace,
        stamp.cores,
        stamp.threads,
        stamp.profile,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        failures.join(", "),
        outcome.chunk_rates.iter().map(f64::to_string).collect::<Vec<_>>().join(", "),
        metrics_object(outcome)
    )
}

/// A minimal JSON reader, enough to check that what the benchmark prints
/// parses back to the values it measured.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object (keys sorted).
        Obj(BTreeMap<String, Value>),
    }

    /// Parse one complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.lit("true", Value::Bool(true)),
                Some(b'f') => self.lit("false", Value::Bool(false)),
                Some(b'n') => self.lit("null", Value::Null),
                Some(_) => self.number(),
                None => Err("unexpected end".into()),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut map = BTreeMap::new();
            self.ws();
            if self.s.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.ws();
                let k = self.string()?;
                self.eat(b':')?;
                let v = self.value()?;
                if map.insert(k.clone(), v).is_some() {
                    return Err(format!("duplicate key {k}"));
                }
                self.ws();
                match self.s.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("bad object at byte {}", self.i)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut out = Vec::new();
            self.ws();
            if self.s.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                out.push(self.value()?);
                self.ws();
                match self.s.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Value::Arr(out));
                    }
                    _ => return Err(format!("bad array at byte {}", self.i)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let c = *self.s.get(self.i).ok_or("unterminated string")?;
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match e {
                            b'"' | b'\\' | b'/' => out.push(e as char),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                    .map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                                self.i += 4;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.i)),
                        }
                    }
                    c if c < 0x20 => return Err("control character in string".into()),
                    _ => {
                        // Copy one UTF-8 sequence whole.
                        let start = self.i - 1;
                        while self.i < self.s.len() && (self.s[self.i] & 0xc0) == 0x80 {
                            self.i += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.s[start..self.i])
                                .map_err(|e| e.to_string())?,
                        );
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.i;
            while self.i < self.s.len()
                && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome { attempted: 1000, failed: 0, threads: 1, ..Outcome::default() };
        o.metric("ops_per_s", 39_123.456_789_012_3, "1/s");
        o.metric("p95_us", 41.25, "us");
        o.metric("tiny", 1.5e-7, "frac");
        o
    }

    #[test]
    fn result_line_parses_back_exactly() {
        let o = sample();
        let Value::Obj(top) = parse(&result_line(&o)).unwrap() else { panic!("not an object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(top["correct"], Value::Bool(true));
        assert_eq!(top["attempted"], Value::Num(1000.0));
        let Value::Obj(metrics) = &top["metrics"] else { panic!("metrics not an object") };
        assert_eq!(metrics.len(), 3);
        for m in &o.metrics {
            let Value::Obj(entry) = &metrics[m.name] else { panic!("{} missing", m.name) };
            assert_eq!(entry["value"], Value::Num(m.value), "{} keeps all its digits", m.name);
            assert_eq!(entry["unit"], Value::Str(m.unit.to_string()));
        }
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut o = sample();
        o.fail(3, "kickstart for 10.255.255.254 differs \"quoted\"".into());
        o.metric("bad", f64::NAN, "ms");
        sanitize(&mut o);
        let Value::Obj(top) = parse(&result_line(&o)).unwrap() else { panic!() };
        assert_eq!(top["correct"], Value::Bool(false));
        assert_eq!(top["failed"], Value::Num(3.0));
        assert_eq!(o.gate_failures.len(), 2);
        let stamp = Stamp {
            workload: "ks_storm",
            cores: 2,
            threads: 1,
            profile: "release",
            run: RunConfig { seed: 4, seconds: 1.0, trace: false },
        };
        let Value::Obj(file) = parse(&result_file(&stamp, &o)).unwrap() else { panic!() };
        assert_eq!(file["profile"], Value::Str("release".into()));
        let Value::Arr(g) = &file["gate_failures"] else { panic!() };
        assert_eq!(g.len(), 2);
        assert!(stamp_line(&stamp, &o).contains("cores=2 threads=1 profile=release"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "{\"a\" 1}", "[1,]", "{\"a\":1,\"a\":2}", "01x", "\"\\q\"", "{} {}"] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
        assert_eq!(parse(" [1, -2.5e3, null] ").unwrap(), {
            Value::Arr(vec![Value::Num(1.0), Value::Num(-2500.0), Value::Null])
        });
    }
}
