"""Tests for actor and futures lifting (Appendix A.1–A.2, E8's correctness half)."""

import pytest

from repro.cluster import Network, NetworkConfig, Simulator, Topology
from repro.compiler import Hydrolysis
from repro.core import SingleNodeInterpreter, analyze_program
from repro.lifting import ActorClass, ActorSystem, FutureRuntime, lift_actor_class
from repro.lifting.actors import Receive
from repro.lifting.futures import (
    lift_future_program,
    run_lifted_future_program,
    run_native_future_program,
)
from repro.lifting.verify import differential_check


def counter_actor_class():
    """A bank-account-style actor: deposit, withdraw, balance."""

    def init(balance=0):
        return {"balance": balance}

    def deposit(state, amount):
        state["balance"] += amount
        return state["balance"]

    def withdraw(state, amount):
        if state["balance"] < amount:
            return "insufficient"
        state["balance"] -= amount
        return state["balance"]

    def balance(state):
        return state["balance"]

    return ActorClass("Account", init=init,
                      handlers={"deposit": deposit, "withdraw": withdraw, "balance": balance})


def waiting_actor_class():
    """The appendix's mid-method receive pattern: m_pre, wait, m_post."""

    def init():
        return {"pre": None}

    def pre_continuation(state, payload):
        return f"{state['pre']}+{payload}"

    def m(state, msg):
        state["pre"] = f"pre({msg})"
        return Receive("mybox", pre_continuation)

    actor_class = ActorClass("Waiter", init=init, handlers={"m": m})
    actor_class.continuations = {"mybox": pre_continuation}
    return actor_class


class TestNativeActorSystem:
    def test_spawn_and_rpc(self):
        system = ActorSystem()
        system.register(counter_actor_class())
        account = system.spawn("Account", balance=100)
        assert system.send(account, "deposit", amount=50) == 150
        assert system.send(account, "withdraw", amount=30) == 120
        assert system.send(account, "withdraw", amount=1000) == "insufficient"
        assert system.state_of(account)["balance"] == 120

    def test_actors_are_isolated(self):
        system = ActorSystem()
        system.register(counter_actor_class())
        a = system.spawn("Account", balance=10)
        b = system.spawn("Account", balance=20)
        system.send(a, "deposit", amount=5)
        assert system.state_of(a)["balance"] == 15
        assert system.state_of(b)["balance"] == 20

    def test_duplicate_spawn_rejected(self):
        system = ActorSystem()
        system.register(counter_actor_class())
        system.spawn("Account", actor_id="acct")
        with pytest.raises(ValueError):
            system.spawn("Account", actor_id="acct")

    def test_mid_method_receive_blocks_then_resumes(self):
        system = ActorSystem()
        system.register(waiting_actor_class())
        waiter = system.spawn("Waiter")
        assert system.send(waiter, "m", msg="hello") is None
        assert system.is_waiting(waiter)
        result = system.send(waiter, "mybox", payload="world")
        assert result == "pre(hello)+world"
        assert not system.is_waiting(waiter)


class TestLiftedActors:
    def test_lifted_rpc_matches_native(self):
        actor_class = counter_actor_class()
        lifted = lift_actor_class(actor_class)
        system = ActorSystem()
        system.register(actor_class)

        def native_call(name, kwargs):
            if name == "spawn":
                return system.spawn("Account", actor_id=kwargs["actor_id"],
                                    **(kwargs.get("init_kwargs") or {}))
            return system.send(kwargs["actor_id"], name, **(kwargs.get("kwargs") or {}))

        operations = [
            ("spawn", {"actor_id": "a1", "init_kwargs": {"balance": 100}}),
            ("deposit", {"actor_id": "a1", "kwargs": {"amount": 20}}),
            ("withdraw", {"actor_id": "a1", "kwargs": {"amount": 50}}),
            ("withdraw", {"actor_id": "a1", "kwargs": {"amount": 999}}),
            ("balance", {"actor_id": "a1", "kwargs": {}}),
        ]
        report = differential_check(native_call, lifted, operations)
        assert report.equivalent, report.describe()

    def test_lifted_actor_state_is_non_monotone(self):
        """The appendix notes the blocking/actor idiom forces non-monotone
        mutation; the monotonicity analysis should agree."""
        lifted = lift_actor_class(counter_actor_class())
        report = analyze_program(lifted)
        assert not report.handlers["deposit"].is_monotone

    def test_lifted_mid_method_receive(self):
        lifted = lift_actor_class(waiting_actor_class())
        interp = SingleNodeInterpreter(lifted)
        interp.call_and_run("spawn", actor_id="w1")
        assert interp.call_and_run("m", actor_id="w1", kwargs={"msg": "hello"}) is None
        assert interp.view().row("actors", "w1")["waiting"] == "mybox"
        result = interp.call_and_run("resume", actor_id="w1", mailbox="mybox", payload="world")
        assert result == "pre(hello)+world"
        assert interp.view().row("actors", "w1")["waiting"] is None

    def test_resume_on_wrong_mailbox_is_ignored(self):
        lifted = lift_actor_class(waiting_actor_class())
        interp = SingleNodeInterpreter(lifted)
        interp.call_and_run("spawn", actor_id="w1")
        interp.call_and_run("m", actor_id="w1", kwargs={"msg": "x"})
        assert interp.call_and_run("resume", actor_id="w1", mailbox="otherbox", payload="y") is None
        assert interp.view().row("actors", "w1")["waiting"] == "mybox"

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_a_deployed_burst_loses_no_deposit(self, seed):
        """Nine deposits and three overdrafts fired at one instant at the
        actor compiled onto three AZs reply, and leave every replica, as the
        native actor does.  Run coordination-free, replicas served them
        concurrently and the plain ``state`` field kept one replica's
        balance: four deposits were lost and every replica ended at 150."""
        burst = [("deposit", 10)] * 9 + [("withdraw", 150)] * 3
        system = ActorSystem()
        system.register(counter_actor_class())
        system.spawn("Account", actor_id="acct", balance=100)
        native = [system.send("acct", method, amount=amount) for method, amount in burst]
        assert native[8:] == [190, 40, "insufficient", "insufficient"]

        topo = Topology()
        nodes = []
        for az in range(3):
            for index in range(2):
                nodes.append(f"node-{az}-{index}")
                topo.place(nodes[-1], az=f"az-{az}", vm=f"vm-{az}-{index}")
        program = lift_actor_class(counter_actor_class())
        compiler = Hydrolysis()
        plan = compiler.compile(program, topo, nodes)
        simulator = Simulator(seed=seed)
        deployment = compiler.deploy(program, plan, simulator,
                                     Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5)))
        deployment.invoke("spawn", actor_id="acct", init_kwargs={"balance": 100})
        deployment.settle()
        tokens = [deployment.invoke(method, actor_id="acct", kwargs={"amount": amount})
                  for method, amount in burst]
        deployment.settle()
        assert [deployment.response(token)["value"] for token in tokens] == native
        assert [replica.interpreter.view().row("actors", "acct")["state"]
                for replica in deployment.replicas.values()] == (
            [system.state_of("acct")] * len(deployment.replicas))
        assert sorted(plan.coordinated_endpoints()) == sorted(program.handlers)

    def test_method_on_unspawned_actor_returns_none(self):
        lifted = lift_actor_class(counter_actor_class())
        interp = SingleNodeInterpreter(lifted)
        assert interp.call_and_run("deposit", actor_id="ghost", kwargs={"amount": 1}) is None


class TestFutures:
    def test_native_runtime_resolves_in_order(self):
        runtime = FutureRuntime()
        futures = [runtime.remote(lambda x: x * x, i) for i in range(4)]
        assert runtime.get(futures) == [0, 1, 4, 9]

    def test_native_program_matches_appendix_example(self):
        result = run_native_future_program(lambda i: i + 10, 4, lambda: "local-done")
        assert result.local_result == "local-done"
        assert result.future_results == [10, 11, 12, 13]

    def test_lifted_program_matches_native(self):
        native = run_native_future_program(lambda i: i * 3, 4, lambda: 99)
        lifted = lift_future_program(lambda i: i * 3, 4, lambda: 99)
        lifted_result = run_lifted_future_program(lifted)
        assert lifted_result.local_result == native.local_result
        assert lifted_result.future_results == native.future_results

    def test_lifted_resolve_waits_for_all_futures(self):
        program = lift_future_program(lambda i: i, 3, lambda: None)
        interp = SingleNodeInterpreter(program)
        interp.call("start")
        interp.run_tick()
        # Promises have been sent but not yet executed: resolve must decline.
        assert interp.call_and_run("resolve") is None
