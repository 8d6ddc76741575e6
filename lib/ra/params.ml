type t = {
  context_switch : Sim.Time.span;
  fault_trap : Sim.Time.span;
  fault_copy : Sim.Time.span;
  fault_zero_fill : Sim.Time.span;
  activation_setup : Sim.Time.span;
  invoke_setup : Sim.Time.span;
  invoke_return : Sim.Time.span;
  thread_create : Sim.Time.span;
  name_lookup : Sim.Time.span;
}

let default =
  {
    context_switch = Sim.Time.us 140;
    fault_trap = Sim.Time.us 200;
    fault_copy = Sim.Time.us 429;
    fault_zero_fill = Sim.Time.us 1300;
    activation_setup = Sim.Time.of_ms_f 8.0;
    invoke_setup = Sim.Time.of_ms_f 4.3;
    invoke_return = Sim.Time.of_ms_f 3.5;
    thread_create = Sim.Time.of_ms_f 1.2;
    name_lookup = Sim.Time.of_ms_f 0.8;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>context_switch=%a@ fault_trap=%a@ fault_copy=%a@ \
     fault_zero_fill=%a@ activation_setup=%a@ invoke_setup=%a@ \
     invoke_return=%a@ thread_create=%a@ name_lookup=%a@]"
    Sim.Time.pp t.context_switch Sim.Time.pp t.fault_trap Sim.Time.pp
    t.fault_copy Sim.Time.pp t.fault_zero_fill Sim.Time.pp t.activation_setup
    Sim.Time.pp t.invoke_setup Sim.Time.pp t.invoke_return Sim.Time.pp
    t.thread_create Sim.Time.pp t.name_lookup
