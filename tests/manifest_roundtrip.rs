//! Round-trip check for the run manifest: experiments are run through
//! the real registry, collected by `ManifestBuilder`, serialized, and
//! parsed back with a minimal JSON parser written *in this test* —
//! independent of `obs::Json::parse`, so a serializer bug cannot be
//! masked by a matching parser bug.

use std::sync::Arc;

use rodinia_repro::datasets::Scale;
use rodinia_repro::rodinia_study::experiments::{run_gpu, ExperimentId};
use rodinia_repro::rodinia_study::manifest::{ManifestBuilder, MANIFEST_SCHEMA};
use rodinia_repro::rodinia_study::StudySession;

/// A deliberately small JSON value model: just enough to check the
/// manifest document's structure.
#[derive(Debug, Clone, PartialEq)]
enum V {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<V>),
    Obj(Vec<(String, V)>),
}

impl V {
    fn get(&self, key: &str) -> Option<&V> {
        match self {
            V::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn arr(&self) -> &[V] {
        match self {
            V::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            V::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            V::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }
}

/// Recursive-descent parser over bytes. Panics (failing the test) on any
/// malformed input.
struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn parse(text: &'a str) -> V {
        let mut p = P {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes after document");
        v
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.b.get(self.i).expect("unexpected end of input")
    }

    fn lit(&mut self, word: &str, v: V) -> V {
        assert!(
            self.b[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> V {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => V::Str(self.string()),
            b't' => self.lit("true", V::Bool(true)),
            b'f' => self.lit("false", V::Bool(false)),
            b'n' => self.lit("null", V::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> V {
        self.expect(b'{');
        let mut pairs = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return V::Obj(pairs);
        }
        loop {
            self.ws();
            let key = self.string();
            self.expect(b':');
            pairs.push((key, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return V::Obj(pairs);
                }
                other => panic!("expected ',' or '}}', got {:?}", other as char),
            }
        }
    }

    fn array(&mut self) -> V {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return V::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return V::Arr(items);
                }
                other => panic!("expected ',' or ']', got {:?}", other as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            let c = *self.b.get(self.i).expect("unterminated string");
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = *self.b.get(self.i).expect("dangling escape");
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.b[self.i..self.i + 4]).expect("hex");
                            let cp = u32::from_str_radix(hex, 16).expect("hex digits");
                            self.i += 4;
                            // The manifest never emits surrogate pairs
                            // (table text is ASCII); reject rather than
                            // mis-decode.
                            out.push(char::from_u32(cp).expect("BMP scalar"));
                        }
                        other => panic!("bad escape {:?}", other as char),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at c.
                    let start = self.i - 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).expect("utf8"));
                }
            }
        }
    }

    fn number(&mut self) -> V {
        self.ws();
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("utf8 number");
        V::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

#[test]
fn manifest_round_trips_with_all_tables_present() {
    // Cheap GPU-side experiments spanning single- and multi-table ids.
    let ids = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Table4,
        ExperimentId::Table5,
    ];
    let session = StudySession::default();
    let mut builder = ManifestBuilder::new(Scale::Tiny, Arc::clone(session.records()));
    let mut expected: Vec<(String, Vec<String>)> = Vec::new();
    for id in ids {
        let tables = run_gpu(&session, id, Scale::Tiny).expect("experiment runs");
        expected.push((
            format!("{id:?}"),
            tables.iter().map(|t| t.title.clone()).collect(),
        ));
        builder.push_experiment(&format!("{id:?}"), &tables, 1);
    }
    let text = builder.build().to_string();

    let doc = P::parse(&text);
    assert_eq!(doc.get("schema").expect("schema").str(), MANIFEST_SCHEMA);
    assert_eq!(doc.get("scale").expect("scale").str(), "tiny");

    let exps = doc.get("experiments").expect("experiments").arr();
    assert_eq!(exps.len(), expected.len(), "every experiment present");
    for (exp, (id, titles)) in exps.iter().zip(&expected) {
        assert_eq!(exp.get("id").expect("id").str(), id);
        let tables = exp.get("tables").expect("tables").arr();
        assert_eq!(tables.len(), titles.len(), "{id}: all tables present");
        for (table, title) in tables.iter().zip(titles) {
            assert_eq!(table.get("title").expect("title").str(), title);
            let cols = table.get("columns").expect("columns").arr();
            assert!(!cols.is_empty(), "{title}: has columns");
            for row in table.get("rows").expect("rows").arr() {
                assert_eq!(
                    row.arr().len(),
                    cols.len(),
                    "{title}: row width matches header"
                );
            }
            assert!(
                !table.get("rows").expect("rows").arr().is_empty(),
                "{title}: has rows"
            );
        }
    }

    // Fig2/Fig3 simulate all 12 benchmarks: their kernel-stats records
    // (with stall breakdowns) must be in the manifest.
    let kernels = doc.get("kernel_stats").expect("kernel_stats").arr();
    assert!(!kernels.is_empty(), "kernel stats recorded");
    for k in kernels {
        let stall = k.get("stall").expect("stall");
        let total = stall.get("total").expect("total").num();
        let parts: f64 = [
            "issue",
            "mem_pending",
            "bank_conflict",
            "divergence",
            "barrier",
            "empty",
        ]
        .iter()
        .map(|f| stall.get(f).expect("component").num())
        .sum();
        assert_eq!(parts, total, "stall components sum to total in manifest");
    }
    assert_eq!(doc.get("dropped_kernel_stats").expect("dropped").num(), 0.0);

    // Span timings made it into the telemetry snapshot.
    let spans = doc
        .get("telemetry")
        .expect("telemetry")
        .get("spans")
        .expect("spans");
    assert!(
        spans.get("experiment.Fig2").is_some(),
        "experiment span recorded"
    );
    assert!(spans.get("bench.HS").is_some(), "benchmark span recorded");
}
