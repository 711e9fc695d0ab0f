//! The production node-agent characterization from paper §2.
//!
//! Table 1 categorizes the 77 on-node agents running in Azure into six
//! classes and marks which can benefit from on-node learning; Table 2 lists
//! example learning-based resource-control agents from the literature. This
//! module encodes both tables as structured data so the `table1` / `table2`
//! bench targets can regenerate them and so tests can check the paper's
//! summary statistics (77 agents, 35% benefiting).

/// One of the six classes of production node agents (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentClass {
    /// Configure node hardware, software, or data.
    Configuration,
    /// Long-running node services (VM lifecycle, security scanning, ...).
    Services,
    /// Monitoring and logging of the node's state.
    MonitoringLogging,
    /// Watch for problems to alert on or auto-mitigate.
    Watchdogs,
    /// Dynamically manage resource assignments (CPU, memory, power).
    ResourceControl,
    /// Allow operators access to nodes for incident handling.
    Access,
}

impl AgentClass {
    /// All classes, in the order Table 1 lists them.
    pub const ALL: [AgentClass; 6] = [
        AgentClass::Configuration,
        AgentClass::Services,
        AgentClass::MonitoringLogging,
        AgentClass::Watchdogs,
        AgentClass::ResourceControl,
        AgentClass::Access,
    ];

    /// Human-readable class name as printed in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            AgentClass::Configuration => "Configuration",
            AgentClass::Services => "Services",
            AgentClass::MonitoringLogging => "Monitoring/logging",
            AgentClass::Watchdogs => "Watchdogs",
            AgentClass::ResourceControl => "Resource control",
            AgentClass::Access => "Access",
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyRow {
    /// Agent class.
    pub class: AgentClass,
    /// Number of agents of this class running on Azure nodes.
    pub count: u32,
    /// Short description of what the class does.
    pub description: &'static str,
    /// Example agents.
    pub examples: &'static str,
    /// Whether the paper argues this class can benefit from on-node learning.
    pub benefits_from_learning: bool,
}

/// Returns Table 1: the taxonomy of production agents.
pub fn table1() -> Vec<TaxonomyRow> {
    vec![
        TaxonomyRow {
            class: AgentClass::Configuration,
            count: 25,
            description: "Configure node HW, SW, or data",
            examples: "Credentials, firewalls, OS updates",
            benefits_from_learning: false,
        },
        TaxonomyRow {
            class: AgentClass::Services,
            count: 23,
            description: "Long-running node services",
            examples: "VM creation, live migration",
            benefits_from_learning: false,
        },
        TaxonomyRow {
            class: AgentClass::MonitoringLogging,
            count: 18,
            description: "Monitoring and logging node's state",
            examples: "CPU and OS counters, network telemetry",
            benefits_from_learning: true,
        },
        TaxonomyRow {
            class: AgentClass::Watchdogs,
            count: 7,
            description: "Watch for problems to alert/automitigate",
            examples: "Disk space, intrusions, HW errors",
            benefits_from_learning: true,
        },
        TaxonomyRow {
            class: AgentClass::ResourceControl,
            count: 2,
            description: "Manage resource assignments",
            examples: "Power capping, memory management",
            benefits_from_learning: true,
        },
        TaxonomyRow {
            class: AgentClass::Access,
            count: 2,
            description: "Allow operators access to nodes",
            examples: "Filesystem access",
            benefits_from_learning: false,
        },
    ]
}

/// Total number of production agents in Table 1 (77 in the paper).
pub fn total_agents() -> u32 {
    table1().iter().map(|r| r.count).sum()
}

/// Fraction of agents whose class can benefit from on-node learning
/// (the paper reports 35%).
pub fn learning_benefit_fraction() -> f64 {
    let total = total_agents() as f64;
    let benefit: u32 = table1().iter().filter(|r| r.benefits_from_learning).map(|r| r.count).sum();
    benefit as f64 / total
}

/// One row of Table 2: an example on-node learning resource-control agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearningAgentExample {
    /// Agent name (and source).
    pub agent: &'static str,
    /// What it optimizes.
    pub goal: &'static str,
    /// The control action it takes.
    pub action: &'static str,
    /// How often it acts.
    pub frequency: &'static str,
    /// Telemetry it learns from.
    pub inputs: &'static str,
    /// The class of ML model it uses.
    pub model: &'static str,
}

/// Returns Table 2: examples of on-node learning resource-control agents.
pub fn table2() -> Vec<LearningAgentExample> {
    vec![
        LearningAgentExample {
            agent: "SmartHarvest [37]",
            goal: "Harvest idle cores",
            action: "Core assignment",
            frequency: "25 ms",
            inputs: "CPU usage",
            model: "Cost-sensitive classification",
        },
        LearningAgentExample {
            agent: "Hipster [27]",
            goal: "Reduce power draw",
            action: "Core assignment & frequency",
            frequency: "1 s",
            inputs: "App QoS and load",
            model: "Reinforcement learning",
        },
        LearningAgentExample {
            agent: "LinnOS [16]",
            goal: "Improve IO perf",
            action: "IO request routing/rejection",
            frequency: "Every IO",
            inputs: "Latencies, queue sizes",
            model: "Binary classification",
        },
        LearningAgentExample {
            agent: "ESP [25]",
            goal: "Reduce interference",
            action: "App scheduling",
            frequency: "Every app",
            inputs: "App run time, perf counters",
            model: "Regularized regression",
        },
        LearningAgentExample {
            agent: "Overclocking (this paper, §5)",
            goal: "Improve VM perf",
            action: "CPU overclocking",
            frequency: "1 s",
            inputs: "Instructions per second",
            model: "Reinforcement learning",
        },
        LearningAgentExample {
            agent: "Disaggregation (this paper, §5)",
            goal: "Migrate pages",
            action: "Warm/cold page ID",
            frequency: "100 ms",
            inputs: "Page table scans",
            model: "Multi-armed bandits",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_totals() {
        assert_eq!(table1().len(), 6);
        assert_eq!(total_agents(), 77);
        let f = learning_benefit_fraction();
        assert!((f - 0.35).abs() < 0.01, "paper reports ~35%, got {f}");
    }

    #[test]
    fn benefiting_classes_are_the_three_the_paper_names() {
        let benefiting: Vec<_> =
            table1().into_iter().filter(|r| r.benefits_from_learning).map(|r| r.class).collect();
        assert_eq!(
            benefiting,
            vec![AgentClass::MonitoringLogging, AgentClass::Watchdogs, AgentClass::ResourceControl]
        );
    }

    #[test]
    fn table2_lists_six_examples_including_papers_agents() {
        let rows = table2();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.agent.contains("SmartHarvest")));
        assert!(rows.iter().any(|r| r.model.contains("Multi-armed bandits")));
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(AgentClass::MonitoringLogging.name(), "Monitoring/logging");
        assert_eq!(AgentClass::ALL.len(), 6);
    }
}
