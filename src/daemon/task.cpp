#include "daemon/task.hpp"

namespace snipe::daemon {

const char* task_state_name(TaskState s) {
  switch (s) {
    case TaskState::starting: return "starting";
    case TaskState::running: return "running";
    case TaskState::suspended: return "suspended";
    case TaskState::exited: return "exited";
    case TaskState::failed: return "failed";
    case TaskState::killed: return "killed";
    case TaskState::migrated: return "migrated";
  }
  return "unknown";
}

}  // namespace snipe::daemon
