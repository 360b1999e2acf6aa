//! Instruction and data footprints (Figures 11 and 12).

use crate::comparison::ComparisonStudy;
use crate::error::StudyError;
use crate::report::Table;

/// Footprint data for all workloads in the study.
#[derive(Debug, Clone)]
pub struct FootprintStudy {
    /// `(label, instr_blocks_64B, data_blocks_4kB)` per workload.
    pub rows: Vec<(String, usize, usize)>,
}

impl FootprintStudy {
    /// Figure 11's series: 64-byte instruction blocks touched.
    pub fn instruction_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 11: 64-byte instruction blocks touched",
            &["Workload", "Instruction blocks"],
        );
        for (l, i, _) in &self.rows {
            t.push(vec![l.clone(), i.to_string()])?;
        }
        Ok(t)
    }

    /// Figure 12's series: 4 kB data blocks touched.
    pub fn data_table(&self) -> Result<Table, StudyError> {
        let mut t = Table::new(
            "Figure 12: 4 kB data blocks touched",
            &["Workload", "Data blocks"],
        );
        for (l, _, d) in &self.rows {
            t.push(vec![l.clone(), d.to_string()])?;
        }
        Ok(t)
    }

    /// Instruction blocks of one workload (by label prefix).
    ///
    /// # Panics
    ///
    /// Panics if the workload is not in the study.
    pub fn instr_blocks(&self, name: &str) -> usize {
        self.rows
            .iter()
            .find(|(l, ..)| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} not in study"))
            .1
    }

    /// Data blocks of one workload (by label prefix).
    ///
    /// # Panics
    ///
    /// Panics if the workload is not in the study.
    pub fn data_blocks(&self, name: &str) -> usize {
        self.rows
            .iter()
            .find(|(l, ..)| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} not in study"))
            .2
    }

    /// Median instruction blocks across a suite (labels containing the
    /// given tag).
    pub fn median_instr_blocks(&self, tag: &str) -> usize {
        let mut vals: Vec<usize> = self
            .rows
            .iter()
            .filter(|(l, ..)| l.contains(tag))
            .map(|(_, i, _)| *i)
            .collect();
        vals.sort_unstable();
        if vals.is_empty() {
            0
        } else {
            vals[vals.len() / 2]
        }
    }
}

/// Extracts the footprint figures from an existing comparison study.
pub fn footprint_study(study: &ComparisonStudy) -> FootprintStudy {
    FootprintStudy {
        rows: study
            .labels
            .iter()
            .zip(&study.profiles)
            .map(|(l, p)| (l.clone(), p.instr_blocks, p.data_blocks))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::Scale;

    #[test]
    fn parsec_code_exceeds_rodinia_with_mummer_exception() {
        let study = ComparisonStudy::run(&crate::engine::StudySession::sequential(), Scale::Tiny)
            .expect("tiny study");
        let fp = footprint_study(&study);
        assert_eq!(fp.rows.len(), 24);
        // The paper: "Parsec applications tend to have larger
        // instruction footprints than Rodinia workloads", with MUMmer
        // the exception.
        let parsec_median = fp.median_instr_blocks("(P)");
        let rodinia_median = fp.median_instr_blocks("(R)");
        assert!(
            parsec_median > 2 * rodinia_median,
            "parsec {parsec_median} vs rodinia {rodinia_median}"
        );
        assert!(
            fp.instr_blocks("mummergpu") > parsec_median / 2,
            "MUMmer is the Rodinia exception"
        );
        // Figure 12: both suites touch large data sets.
        assert!(fp.data_blocks("mummergpu") > 10);
        assert!(fp
            .instruction_table()
            .expect("renders")
            .to_string()
            .contains("vips"));
        assert!(fp
            .data_table()
            .expect("renders")
            .to_string()
            .contains("canneal"));
    }
}
