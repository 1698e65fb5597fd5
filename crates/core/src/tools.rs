//! SQL-directed cluster administration: `cluster-fork` and `cluster-kill`
//! (paper §6.4).
//!
//! "By simply adding an SQL interface to the script makes it more
//! powerful as the user can intelligently direct the script to a subset
//! of the nodes. ... Any SQL query, including joins, can be fed to
//! cluster-kill."

use crate::cluster::Cluster;
use crate::Result;
use rocks_rexec::{ExecEnv, ParallelResult, Rexec};

/// Run `command` on the nodes a SQL query selects (first column = node
/// names). With `query = None`, all compute nodes are targeted — the
/// brute-force behaviour the paper's first script had.
pub fn cluster_fork(
    cluster: &mut Cluster,
    query: Option<&str>,
    command: &str,
) -> Result<ParallelResult> {
    let names = match query {
        Some(q) => cluster.db.query_names(q)?,
        None => cluster.compute_node_names()?,
    };
    let agents = cluster.agents_for(&names)?;
    let rexec = Rexec::new(agents);
    Ok(rexec.run(command, &ExecEnv::default()))
}

/// A cluster status summary straight from the database: node counts per
/// membership, per rack — the at-a-glance view administrators keep in a
/// terminal. Rendered the way the `mysql` client would.
pub fn cluster_status(cluster: &mut Cluster) -> Result<String> {
    let by_membership = cluster.db.sql_ref().query(
        "select memberships.name, count(*) from nodes, memberships \
         where nodes.membership = memberships.id \
         group by memberships.name order by memberships.name",
    )?;
    let by_rack = cluster
        .db
        .sql_ref()
        .query("select rack, count(*) from nodes group by rack order by rack")?;
    Ok(format!(
        "nodes by membership:\n{}\nnodes by rack:\n{}",
        by_membership.render_ascii(),
        by_rack.render_ascii()
    ))
}

/// Kill a runaway process on the selected nodes — literally
/// `cluster-kill --query="..." bad-job`.
pub fn cluster_kill(
    cluster: &mut Cluster,
    query: Option<&str>,
    process: &str,
) -> Result<ParallelResult> {
    cluster_fork(cluster, query, &format!("pkill {process}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    fn cluster_with_nodes() -> Cluster {
        let mut cluster = Cluster::install_frontend("00:30:c1:d8:ac:80", 1).unwrap();
        let macs: Vec<String> = (0..2).map(|i| format!("aa:00:00:00:00:{i:02x}")).collect();
        cluster.integrate_rack("Compute", 0, &macs).unwrap();
        let macs: Vec<String> = (0..2).map(|i| format!("aa:00:00:00:01:{i:02x}")).collect();
        cluster.integrate_rack("Compute", 1, &macs).unwrap();
        cluster
    }

    #[test]
    fn status_summarizes_memberships_and_racks() {
        let mut cluster = cluster_with_nodes();
        let status = cluster_status(&mut cluster).unwrap();
        assert!(status.contains("Compute"));
        assert!(status.contains("Frontend"));
        // 2 compute nodes in each of racks 0 and 1, frontend in rack 0.
        assert!(status.contains("| 0    | 3"), "{status}");
        assert!(status.contains("| 1    | 2"), "{status}");
    }

    #[test]
    fn fork_hostname_across_all_compute_nodes() {
        let mut cluster = cluster_with_nodes();
        let result = cluster_fork(&mut cluster, None, "hostname").unwrap();
        assert!(result.all_ok());
        assert_eq!(result.exits.len(), 4);
    }

    #[test]
    fn paper_example_kill_by_rack() {
        // §6.4: "cluster-kill --query=\"select name from nodes where
        // rack=1\" bad-job"
        let mut cluster = cluster_with_nodes();
        for name in cluster.compute_node_names().unwrap() {
            cluster.agent(&name).unwrap().spawn_process("bad-job");
        }
        let result =
            cluster_kill(&mut cluster, Some("select name from nodes where rack=1"), "bad-job")
                .unwrap();
        assert_eq!(result.exits.len(), 2);
        assert!(result.all_ok());
        // Rack 1's processes are dead; rack 0's survive.
        assert!(cluster.agent("compute-1-0").unwrap().process_names().is_empty());
        assert_eq!(cluster.agent("compute-0-0").unwrap().process_names(), vec!["bad-job"]);
    }

    #[test]
    fn paper_example_kill_by_membership_join() {
        // §6.4's multi-table join, verbatim.
        let mut cluster = cluster_with_nodes();
        for name in cluster.compute_node_names().unwrap() {
            cluster.agent(&name).unwrap().spawn_process("bad-job");
        }
        let result = cluster_kill(
            &mut cluster,
            Some(
                "select nodes.name from nodes,memberships where \
                 nodes.membership = memberships.id and \
                 memberships.name = 'Compute'",
            ),
            "bad-job",
        )
        .unwrap();
        assert_eq!(result.exits.len(), 4);
        assert!(result.all_ok());
        for name in cluster.compute_node_names().unwrap() {
            assert!(cluster.agent(&name).unwrap().process_names().is_empty());
        }
    }

    #[test]
    fn query_selecting_frontend_fails_cleanly() {
        // The frontend has no compute agent: the tool reports the
        // unknown node rather than panicking.
        let mut cluster = cluster_with_nodes();
        let err = cluster_fork(
            &mut cluster,
            Some("select name from nodes where name = 'frontend-0'"),
            "hostname",
        );
        assert!(err.is_err());
    }

    #[test]
    fn bad_sql_propagates_error() {
        let mut cluster = cluster_with_nodes();
        assert!(cluster_fork(&mut cluster, Some("selec oops"), "hostname").is_err());
    }
}
