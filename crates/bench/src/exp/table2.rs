//! Table 2: dataset statistics.

use crate::data::{Dataset, Scale};
use crate::table::print_table;

#[derive(Debug, Clone)]
pub struct Table2Row {
    pub dataset: String,
    pub num_trajectories: usize,
    pub avg_length: f64,
    pub num_vertices: usize,
    pub num_edges: usize,
}

pub fn run(scale: Scale) -> Vec<Table2Row> {
    ["beijing", "porto", "singapore", "sanfran"]
        .iter()
        .map(|which| {
            let d = Dataset::load(which, scale);
            let stats = d.store.stats();
            Table2Row {
                dataset: d.name.to_string(),
                num_trajectories: stats.num_trajectories,
                avg_length: stats.avg_length,
                num_vertices: d.net.num_vertices(),
                num_edges: d.net.num_edges(),
            }
        })
        .collect()
}

pub fn print(rows: &[Table2Row]) {
    println!("\nTable 2: dataset statistics (synthetic stand-ins)");
    print_table(
        &["Dataset", "#Trajectories", "Avg. Length", "|V|", "|E|"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.num_trajectories.to_string(),
                    format!("{:.0}", r.avg_length),
                    r.num_vertices.to_string(),
                    r.num_edges.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_have_expected_relative_shape() {
        let rows = run(Scale(0.02));
        assert_eq!(rows.len(), 4);
        let by_name = |n: &str| rows.iter().find(|r| r.dataset == n).unwrap();
        // Relative shapes of Table 2: Porto has the most trajectories of the
        // first three, Singapore the longest average and smallest network,
        // SanFran the largest network and count.
        assert!(by_name("Porto").num_trajectories > by_name("Beijing").num_trajectories);
        assert!(by_name("SanFran").num_trajectories >= by_name("Porto").num_trajectories);
        assert!(by_name("Singapore").avg_length > by_name("Beijing").avg_length);
        assert!(by_name("Singapore").num_vertices < by_name("Beijing").num_vertices);
        assert!(by_name("SanFran").num_vertices > by_name("Beijing").num_vertices);
    }
}
