//! Machine-readable and human-readable rendering of findings.

use obs::Json;

use crate::finding::{error_count, warning_count, Finding};

/// Serializes one finding as a JSON object with stable keys.
pub fn finding_json(f: &Finding) -> Json {
    Json::obj(vec![
        ("kind", Json::Str(f.kind.name().to_string())),
        ("severity", Json::Str(f.severity().to_string())),
        ("kernel", Json::Str(f.kernel.clone())),
        ("subject", Json::Str(f.subject.clone())),
        ("message", Json::Str(f.message.clone())),
        ("count", Json::u64(f.count)),
    ])
}

/// Serializes a finding list plus summary counts.
///
/// Schema: `{"errors": N, "warnings": N, "findings": [finding...]}` with
/// each finding as in [`finding_json`]. This is the per-benchmark payload
/// of the `repro check --json` report.
pub fn findings_json(findings: &[Finding]) -> Json {
    Json::obj(vec![
        ("errors", Json::u64(error_count(findings) as u64)),
        ("warnings", Json::u64(warning_count(findings) as u64)),
        (
            "findings",
            Json::Arr(findings.iter().map(finding_json).collect()),
        ),
    ])
}

/// Renders findings as text lines, one per finding, errors first.
pub fn render_findings(findings: &[Finding]) -> Vec<String> {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| {
        b.severity()
            .cmp(&a.severity())
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.kernel.cmp(&b.kernel))
            .then_with(|| a.subject.cmp(&b.subject))
    });
    sorted
        .iter()
        .map(std::string::ToString::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::FindingKind;

    fn finding(kind: FindingKind) -> Finding {
        Finding {
            kind,
            kernel: "k".into(),
            subject: "s".into(),
            message: "m".into(),
            count: 2,
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let fs = vec![
            finding(FindingKind::SharedRace),
            finding(FindingKind::BankConflict),
        ];
        let j = findings_json(&fs);
        let text = format!("{j}");
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(parsed.get("errors").and_then(Json::as_f64), Some(1.0));
        assert_eq!(parsed.get("warnings").and_then(Json::as_f64), Some(1.0));
        let arr = parsed.get("findings").and_then(Json::as_arr).expect("arr");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("kind").and_then(Json::as_str),
            Some("shared-race")
        );
    }

    #[test]
    fn render_orders_errors_first() {
        let fs = vec![
            finding(FindingKind::BankConflict),
            finding(FindingKind::SharedRace),
        ];
        let lines = render_findings(&fs);
        assert!(lines[0].starts_with("error:"));
        assert!(lines[1].starts_with("warning:"));
    }
}
