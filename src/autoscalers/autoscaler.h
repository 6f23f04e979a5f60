// Common interface for resource controllers that run against the cluster:
// the Kubernetes HPA, the FIRM-like comparator, the §2.1 proactive oracle,
// and GRAF's own controller (src/fleet/graf_controller.h).
#pragma once

#include <string>

#include "common/units.h"
#include "sim/cluster.h"

namespace graf::autoscalers {

class Autoscaler {
 public:
  virtual ~Autoscaler() = default;

  /// Begin controlling `cluster` (schedules periodic control ticks) until
  /// simulation time `until`.
  virtual void attach(sim::Cluster& cluster, Seconds until) = 0;

  virtual std::string name() const = 0;
};

}  // namespace graf::autoscalers
